"""Protocol `Approximate` — Algorithm 2, Section 3 (Theorem 1, statement 1).

`Approximate` is the paper's uniform protocol for computing ``floor(log2 n)``
or ``ceil(log2 n)`` w.h.p. in ``O(n log^2 n)`` interactions with
``O(log n * log log n)`` states.  Every agent runs, in parallel:

* the **junta process** and the junta-driven **phase clock** (Section 2);
* **Stage 1 — leader election** ([18]) until ``leaderDone`` is set;
* **Stage 2 — the Search Protocol** (Algorithm 1) orchestrated by the leader;
* **Stage 3 — broadcasting**: the leader's result ``k_u`` is pushed to every
  agent together with the ``searchDone`` flag.

Whenever an agent meets a partner on a strictly higher junta level it
re-initialises its phase clock, leader election, and search state
(Algorithm 2, lines 1–2), so the computation that ultimately counts is the
one running on the maximal junta level.

The output of an agent is its ``k`` value once ``searchDone`` is set
(``None`` before), so Theorem 1's acceptance predicate is "every output lies
in ``{floor(log2 n), ceil(log2 n)}``".
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional

from ..engine.convergence import OutputPredicate, outputs_in
from ..engine.protocol import Protocol
from ..primitives.junta import JuntaState, junta_update_pair
from ..primitives.leader_election import LeaderElectionState, leader_election_update
from ..primitives.phase_clock import PhaseClockState, phase_clock_update
from .keys import PHASE_RESIDUE_MODULUS, residue_compatible
from .params import ApproximateParameters
from .search import SearchState, search_update

__all__ = ["ApproximateAgent", "ApproximateProtocol", "log_estimate_targets"]


def log_estimate_targets(n: int) -> set:
    """Return the set of outputs Theorem 1 accepts: ``{floor(log2 n), ceil(log2 n)}``."""
    return {int(math.floor(math.log2(n))), int(math.ceil(math.log2(n)))}


@dataclass(slots=True)
class ApproximateAgent:
    """Full per-agent state of protocol `Approximate` (Figure 2)."""

    junta: JuntaState
    clock: PhaseClockState
    election: LeaderElectionState
    search: SearchState

    def key(self) -> Hashable:
        return (self.junta.key(), self.clock.key(), self.election.key(), self.search.key())

    def reinitialise(self) -> None:
        """Reset clock, leader election, and search (Algorithm 2, line 2)."""
        self.clock.reset()
        self.election.reset()
        self.search.reset()


class ApproximateProtocol(Protocol[ApproximateAgent]):
    """The uniform protocol `Approximate` of Theorem 1 (Algorithm 2).

    Args:
        params: Tunable constants (clock modulus, leader-election horizon, …).
    """

    name = "approximate"
    # The only randomness is the leader election's synthetic coin (flip).
    pure_key_transitions = True

    def __init__(self, params: ApproximateParameters = ApproximateParameters()) -> None:
        self.params = params

    # ----------------------------------------------------------------- API
    def initial_state(self, agent_id: int) -> ApproximateAgent:
        return ApproximateAgent(
            junta=JuntaState(),
            clock=PhaseClockState(),
            election=LeaderElectionState(),
            search=SearchState(),
        )

    def transition(
        self, initiator: ApproximateAgent, responder: ApproximateAgent, rng: random.Random
    ) -> None:
        u, v = initiator, responder
        # Line 1-2: re-initialise on meeting a strictly higher junta level.
        u_saw_higher, v_saw_higher = junta_update_pair(u.junta, v.junta)
        if u_saw_higher:
            u.reinitialise()
        if v_saw_higher:
            v.reinitialise()

        # Line 4: phase clocks (both agents are updated, as in the pseudo-code).
        u_clock_before = u.clock.clock
        v_clock_before = v.clock.clock
        phase_clock_update(
            u.clock, v_clock_before, is_junta=u.junta.junta, modulus=self.params.clock_modulus
        )
        phase_clock_update(
            v.clock, u_clock_before, is_junta=v.junta.junta, modulus=self.params.clock_modulus
        )

        # Lines 5-10: stage dispatch driven by the initiator's flags.
        if not u.election.leader_done:
            # Stage 1: leader election.
            leader_election_update(
                u.election,
                v.election,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
                u_level=u.junta.level,
                rng=rng,
                params=self.params.leader_election,
            )
        elif not u.search.search_done:
            # Stage 2: the Search Protocol.
            search_update(
                u.search,
                v.search,
                u_leader=u.election.leader,
                v_leader=v.election.leader,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
            )
            # leaderDone keeps spreading so stragglers enter Stage 2 as well.
            if u.election.leader_done:
                v.election.leader_done = True
        else:
            # Stage 3: broadcasting — push the result to the responder.
            v.election.leader_done = True
            v.search.search_done = True
            v.search.k = u.search.k

        u.clock.first_tick = False

    def output(self, state: ApproximateAgent) -> Optional[int]:
        """The agent's estimate of ``log2 n`` once the search has concluded."""
        return state.search.k if state.search.search_done else None

    def state_key(self, state: ApproximateAgent) -> Hashable:
        # The component keys and `clock_key`, built in one frame: every memo
        # miss builds two.  The phase counter is unbounded bookkeeping, but
        # the protocol only ever consumes it modulo 5 (Search Protocol
        # rounds) and modulo the leader-election signal tag; state-space
        # accounting therefore uses the semantically meaningful residue
        # (mod 40 covers both) so that the measured state count matches the
        # paper's O(log n * log log n) accounting rather than the length of
        # the run.
        junta = state.junta
        clock = state.clock
        election = state.election
        search = state.search
        return (
            (junta.level, junta.active, junta.junta, junta.reached_level),
            (clock.clock, clock.phase % PHASE_RESIDUE_MODULUS, clock.first_tick),
            (
                election.leader,
                election.leader_done,
                election.coin,
                election.signal,
                election.signal_tag,
                election.phases_completed,
            ),
            (search.k, search.search_done),
        )

    # --------------------------------------------------- key-level transitions
    def state_from_key(self, key: Hashable) -> ApproximateAgent:
        # Each component key is its dataclass's fields in order (see
        # repro.counting.keys), so the components are built directly.
        junta, clock, election, search = key  # type: ignore[misc]
        return ApproximateAgent(
            junta=JuntaState(*junta),
            clock=PhaseClockState(*clock),
            election=LeaderElectionState(*election),
            search=SearchState(*search),
        )

    def supports_key_transitions(self) -> bool:
        # The decoded phase is a mod-40 residue (see repro.counting.keys);
        # exactness requires every tag modulus to divide it.
        return residue_compatible(5, self.params.leader_election.signal_tag_modulus)

    def output_key(self, key: Hashable) -> Optional[int]:
        k, search_done = key[3]  # type: ignore[index]
        return k if search_done else None

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({self.state_key(self.initial_state(0)): n})

    # ----------------------------------------------------------- conveniences
    def convergence_predicate(self, n: int) -> OutputPredicate:
        """Theorem 1 acceptance predicate for a population of size ``n``."""
        return outputs_in(log_estimate_targets(n))

    @staticmethod
    def leader_count(states) -> int:
        """Number of agents currently holding the leader flag (diagnostics)."""
        return sum(1 for state in states if state.election.leader)
