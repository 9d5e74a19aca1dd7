"""Fast leader election — Lemma 7 and Appendix D (following [8]).

`FastLeaderElection` trades states for speed: contenders draw
``Theta(log n)`` random bits per round (the bit budget is derived uniformly
from the junta level, ``~ 2^level``), the drawn numbers are spread by maximum
broadcast in the following phase, and every contender that observes a larger
number withdraws.  With ``~log n + O(1)`` bits per round all contenders draw
distinct numbers w.h.p., so a constant number of rounds suffices to leave a
unique leader; the protocol then sets ``leaderDone``.  The state space is
dominated by the drawn numbers, i.e. ``Õ(n)`` states, and the running time is
``O(n log n)`` interactions — both as claimed by Lemma 7.

Key invariant (used by the stable variant of `CountExact`): there is always
at least one contender, because the contender holding the round's maximum
never withdraws.

This module provides the component update used inside protocol `CountExact`
(Algorithm 3, Stage 1) and a standalone protocol for experiment E7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

from ..engine.protocol import Protocol
from .junta import JuntaState, junta_update_pair
from .params import FastLeaderElectionParameters
from .phase_clock import DEFAULT_CLOCK_MODULUS, PhaseClockState, phase_clock_update
from .synthetic_coin import flip

__all__ = [
    "FastLeaderElectionState",
    "fast_leader_election_update",
    "FastLeaderElectionProtocol",
    "FastLeaderElectionAgent",
]


@dataclass(slots=True)
class FastLeaderElectionState:
    """Per-agent state of `FastLeaderElection`.

    Attributes:
        leader: Whether the agent is still a leader contender.
        leader_done: Whether the election horizon has been reached.
        value: The number drawn bit-by-bit in the current round (contenders).
        bits_drawn: How many bits of ``value`` have been drawn so far.
        best_seen: Maximum round value observed (relayed by all agents).
        best_tag: Phase tag (mod ``tag_modulus``) of ``best_seen``.
        phases_completed: Number of phases of the election completed.
    """

    leader: bool = True
    leader_done: bool = False
    value: int = 0
    bits_drawn: int = 0
    best_seen: int = 0
    best_tag: int = 0
    phases_completed: int = 0

    def key(self) -> Hashable:
        return (
            self.leader,
            self.leader_done,
            self.value,
            self.bits_drawn,
            self.best_seen,
            self.best_tag,
            self.phases_completed,
        )

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.leader = True
        self.leader_done = False
        self.value = 0
        self.bits_drawn = 0
        self.best_seen = 0
        self.best_tag = 0
        self.phases_completed = 0


def fast_leader_election_update(
    u: FastLeaderElectionState,
    v: FastLeaderElectionState,
    u_phase: int,
    u_first_tick: bool,
    u_level: int,
    rng: random.Random,
    params: FastLeaderElectionParameters = FastLeaderElectionParameters(),
) -> bool:
    """One-way `FastLeaderElection` update for initiator ``u`` against ``v``.

    Phases alternate between *draw* phases (even ``phases_completed``), in
    which contenders assemble a random number bit by bit, and *broadcast*
    phases (odd), in which the maximum drawn number is spread and smaller
    contenders withdraw.

    Args:
        u: Initiator's state (mutated in place).
        v: Responder's state (read only).
        u_phase: Initiator's phase-clock phase counter.
        u_first_tick: Whether this is the initiator's first initiated
            interaction of its current phase.
        u_level: Initiator's junta level (drives the per-round bit budget).
        rng: Synthetic-coin randomness.
        params: Tunable constants.

    Returns:
        Whether the update wrote ``u`` (``False`` leaves it as it was).
    """
    tag_mod = params.tag_modulus
    current_tag = u_phase % tag_mod
    wrote = False

    if v.leader_done and not u.leader_done:
        u.leader_done = True
        wrote = True

    if u_first_tick and not u.leader_done:
        wrote = True
        u.phases_completed += 1
        if u.phases_completed >= params.total_phases:
            u.leader_done = True
        if u.leader and u.phases_completed % 2 == 1:
            # Entering a draw phase: start a fresh number.
            u.value = 0
            u.bits_drawn = 0
        if u.phases_completed % 2 == 0:
            # Entering a broadcast phase: seed the maximum broadcast.
            u.best_seen = u.value if u.leader else 0
            u.best_tag = current_tag

    if u.leader_done:
        return wrote

    in_draw_phase = u.phases_completed % 2 == 1
    if in_draw_phase:
        if u.leader and u.bits_drawn < params.bits(u_level):
            u.value = (u.value << 1) | flip(rng)
            u.bits_drawn += 1
            wrote = True
    else:
        # Broadcast phase: relay the maximum value carrying the current tag.
        if v.best_tag == current_tag and u.best_tag == current_tag and v.best_seen > u.best_seen:
            u.best_seen = v.best_seen
            wrote = True
        if u.leader and u.best_tag == current_tag and u.best_seen > u.value:
            u.leader = False
            wrote = True
    return wrote


@dataclass(slots=True)
class FastLeaderElectionAgent:
    """Full agent state of the standalone fast leader-election protocol."""

    junta: JuntaState
    clock: PhaseClockState
    election: FastLeaderElectionState

    def key(self) -> Hashable:
        return (self.junta.key(), self.clock.key(), self.election.key())


class FastLeaderElectionProtocol(Protocol[FastLeaderElectionAgent]):
    """Standalone `FastLeaderElection` (junta + phase clock + bit tournament).

    The output of an agent is ``True`` when it is still a leader contender.

    Args:
        params: Fast-leader-election constants.
        clock_modulus: Phase-clock modulus ``m``.
    """

    name = "fast-leader-election"

    def __init__(
        self,
        params: FastLeaderElectionParameters = FastLeaderElectionParameters(),
        clock_modulus: int = DEFAULT_CLOCK_MODULUS,
    ) -> None:
        self.params = params
        self.clock_modulus = clock_modulus

    def initial_state(self, agent_id: int) -> FastLeaderElectionAgent:
        return FastLeaderElectionAgent(
            junta=JuntaState(), clock=PhaseClockState(), election=FastLeaderElectionState()
        )

    def transition(
        self,
        initiator: FastLeaderElectionAgent,
        responder: FastLeaderElectionAgent,
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
        fast_leader_election_update(
            initiator.election,
            responder.election,
            u_phase=initiator.clock.phase,
            u_first_tick=initiator.clock.first_tick,
            u_level=initiator.junta.level,
            rng=rng,
            params=self.params,
        )
        initiator.clock.first_tick = False

    def output(self, state: FastLeaderElectionAgent) -> bool:
        return state.election.leader

    def state_key(self, state: FastLeaderElectionAgent) -> Hashable:
        return state.key()

    def copy_state(self, state: FastLeaderElectionAgent) -> FastLeaderElectionAgent:
        return FastLeaderElectionAgent(
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
            election=FastLeaderElectionState(
                leader=state.election.leader,
                leader_done=state.election.leader_done,
                value=state.election.value,
                bits_drawn=state.election.bits_drawn,
                best_seen=state.election.best_seen,
                best_tag=state.election.best_tag,
                phases_completed=state.election.phases_completed,
            ),
        )

    @staticmethod
    def leader_count(outputs) -> int:
        """Number of agents currently claiming leadership."""
        return sum(1 for value in outputs if value)
