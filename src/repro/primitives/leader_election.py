"""Stable-style leader election — Section 2, Lemma 6 (following [18]).

Protocol ``leader_elect`` of Gasieniec and Stachowiak runs on top of the
junta process and the junta-driven phase clock.  Every agent starts as a
leader contender; in each phase every remaining contender flips a coin, the
fact "some contender flipped heads" is spread by a one-way epidemic, and at
the start of the next phase every contender that flipped tails while some
other contender flipped heads withdraws.  The set of contenders therefore
halves (in expectation) each phase while never becoming empty, so after
``Theta(log n)`` phases exactly one contender remains w.h.p.

``leaderDone`` marks the end of the election.  The paper derives the
``Theta(log n)``-phase horizon from an *outer* phase clock; this
implementation derives it uniformly from the junta level instead
(``phase_factor * 2^level ~ Theta(log n)`` phases, see
:class:`~repro.primitives.params.LeaderElectionParameters`),
which preserves uniformity and the ``O(n log^2 n)`` interaction bound.

The module provides the component update used inside protocol `Approximate`
(Algorithm 2, Stage 1) and a standalone protocol for experiment E7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Tuple

from ..engine.protocol import Protocol
from .junta import JuntaState, junta_update_pair
from .params import LeaderElectionParameters
from .phase_clock import DEFAULT_CLOCK_MODULUS, PhaseClockState, phase_clock_update
from .synthetic_coin import flip

__all__ = [
    "LeaderElectionState",
    "leader_election_update",
    "LeaderElectionProtocol",
    "LeaderElectionAgent",
]


@dataclass(slots=True)
class LeaderElectionState:
    """Per-agent leader-election bookkeeping.

    Attributes:
        leader: Whether the agent is still a leader contender.
        leader_done: Whether the election horizon has been reached (spread to
            all agents by one-way epidemics).
        coin: The contender's coin flip for the current phase.
        signal: Relay bit of the "some contender flipped heads" epidemic.
        signal_tag: Phase tag (mod ``signal_tag_modulus``) the relay bit
            belongs to, protecting against stale signals from past phases.
        phases_completed: Number of election phases this contender finished
            (contenders only; reset when the agent withdraws).
    """

    leader: bool = True
    leader_done: bool = False
    coin: int = 0
    signal: bool = False
    signal_tag: int = 0
    phases_completed: int = 0

    def key(self) -> Hashable:
        return (
            self.leader,
            self.leader_done,
            self.coin,
            self.signal,
            self.signal_tag,
            self.phases_completed,
        )

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.leader = True
        self.leader_done = False
        self.coin = 0
        self.signal = False
        self.signal_tag = 0
        self.phases_completed = 0


def leader_election_update(
    u: LeaderElectionState,
    v: LeaderElectionState,
    u_phase: int,
    u_first_tick: bool,
    u_level: int,
    rng: random.Random,
    params: LeaderElectionParameters = LeaderElectionParameters(),
) -> None:
    """One-way leader-election update for initiator ``u`` against responder ``v``.

    Args:
        u: Initiator's leader-election state (mutated in place).
        v: Responder's leader-election state (read only).
        u_phase: The initiator's current phase-clock phase counter.
        u_first_tick: Whether this is the first interaction the initiator
            initiates in its current phase.
        u_level: The initiator's junta level (drives the phase horizon).
        rng: Synthetic-coin randomness.
        params: Tunable constants.
    """
    tag_mod = params.signal_tag_modulus
    current_tag = u_phase % tag_mod

    # Epidemic relays: leaderDone always spreads; the heads-signal spreads
    # only when it belongs to the phase the initiator is currently in.
    if v.leader_done:
        u.leader_done = True
    if v.signal and v.signal_tag == current_tag and u.signal_tag == current_tag:
        u.signal = True

    if not u_first_tick or u.leader_done:
        return

    previous_tag = (u_phase - 1) % tag_mod
    if u.leader:
        # Resolve the previous phase: withdraw if I flipped tails while some
        # contender flipped heads (the signal carries the previous phase's tag).
        if u.coin == 0 and u.signal and u.signal_tag == previous_tag and u.phases_completed > 0:
            u.leader = False
            u.phases_completed = 0
    if u.leader:
        u.phases_completed += 1
        u.coin = flip(rng)
        u.signal = bool(u.coin)
        u.signal_tag = current_tag
        if u.phases_completed >= params.phase_threshold(u_level):
            u.leader_done = True
    else:
        # Followers reset their relay bit for the new phase.
        u.signal = False
        u.signal_tag = current_tag


@dataclass(slots=True)
class LeaderElectionAgent:
    """Full agent state of the standalone leader-election protocol."""

    junta: JuntaState
    clock: PhaseClockState
    election: LeaderElectionState

    def key(self) -> Hashable:
        return (self.junta.key(), self.clock.key(), self.election.key())


class LeaderElectionProtocol(Protocol[LeaderElectionAgent]):
    """Standalone leader election (junta + phase clock + coin halving).

    The output of an agent is ``True`` when it currently considers itself a
    leader contender.  Experiment E7 checks that exactly one agent outputs
    ``True`` once every agent has ``leaderDone`` set, and measures the number
    of interactions that takes.

    Args:
        params: Leader-election constants.
        clock_modulus: Phase-clock modulus ``m``.
    """

    name = "leader-election"

    def __init__(
        self,
        params: LeaderElectionParameters = LeaderElectionParameters(),
        clock_modulus: int = DEFAULT_CLOCK_MODULUS,
    ) -> None:
        self.params = params
        self.clock_modulus = clock_modulus

    def initial_state(self, agent_id: int) -> LeaderElectionAgent:
        return LeaderElectionAgent(
            junta=JuntaState(), clock=PhaseClockState(), election=LeaderElectionState()
        )

    def transition(
        self,
        initiator: LeaderElectionAgent,
        responder: LeaderElectionAgent,
        rng: random.Random,
    ) -> None:
        u_saw_higher, v_saw_higher = junta_update_pair(initiator.junta, responder.junta)
        if u_saw_higher:
            initiator.clock.reset()
            initiator.election.reset()
        if v_saw_higher:
            responder.clock.reset()
            responder.election.reset()
        phase_clock_update(
            initiator.clock,
            responder.clock.clock,
            is_junta=initiator.junta.junta,
            modulus=self.clock_modulus,
        )
        leader_election_update(
            initiator.election,
            responder.election,
            u_phase=initiator.clock.phase,
            u_first_tick=initiator.clock.first_tick,
            u_level=initiator.junta.level,
            rng=rng,
            params=self.params,
        )
        initiator.clock.first_tick = False

    def output(self, state: LeaderElectionAgent) -> bool:
        return state.election.leader

    def state_key(self, state: LeaderElectionAgent) -> Hashable:
        return state.key()

    def copy_state(self, state: LeaderElectionAgent) -> LeaderElectionAgent:
        return LeaderElectionAgent(
            junta=JuntaState(
                level=state.junta.level,
                active=state.junta.active,
                junta=state.junta.junta,
                reached_level=state.junta.reached_level,
            ),
            clock=PhaseClockState(
                clock=state.clock.clock,
                phase=state.clock.phase,
                first_tick=state.clock.first_tick,
            ),
            election=LeaderElectionState(
                leader=state.election.leader,
                leader_done=state.election.leader_done,
                coin=state.election.coin,
                signal=state.election.signal,
                signal_tag=state.election.signal_tag,
                phases_completed=state.election.phases_completed,
            ),
        )

    @staticmethod
    def leader_count(outputs) -> int:
        """Number of agents currently claiming leadership."""
        return sum(1 for value in outputs if value)
