"""Protocol `CountExact` — Algorithm 3, Section 4 (Theorem 2).

`CountExact` is the paper's uniform protocol for computing the *exact*
population size ``n`` in asymptotically optimal ``O(n log n)`` interactions
using ``Õ(n)`` states.  Every agent runs, in parallel:

* the **junta process** and the junta-driven **phase clock** (Section 2);
* **Stage 1 — `FastLeaderElection`** ([8], Appendix D) until ``leaderDone``;
* **Stage 2 — the Approximation Stage** (Algorithm 4): repeated load
  explosion + classical balancing until the leader knows ``log2 n ± 3``;
* **Stage 3 — the Refinement Stage** (Algorithm 5): ``C * 2^{2k} >= 4 n^2``
  tokens are balanced so that every agent can output
  ``round(C * 2^{2k} / l) = n`` exactly.

As in `Approximate`, an agent meeting a partner on a strictly higher junta
level re-initialises everything except the junta variables, so the
computation that counts is the one on the maximal junta level.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional

from ..engine.convergence import OutputPredicate, all_outputs_equal
from ..engine.protocol import Protocol
from ..primitives.fast_leader_election import (
    FastLeaderElectionState,
    fast_leader_election_update,
)
from ..primitives.junta import JuntaState, junta_update_pair
from ..primitives.phase_clock import PhaseClockState, phase_clock_update
from .approximation_stage import (
    ApproximationStageState,
    advance_approximation_phase,
    approximation_stage_update,
)
from .keys import (
    PHASE_RESIDUE_MODULUS,
    approximation_from_key,
    clock_from_key,
    fast_election_from_key,
    junta_from_key,
    refinement_from_key,
    residue_compatible,
)
from .params import CountExactParameters
from .refinement_stage import (
    RefinementStageState,
    advance_refinement_phase,
    refinement_estimate,
    refinement_output,
    refinement_stage_update,
)

__all__ = ["CountExactAgent", "CountExactProtocol"]


@dataclass(slots=True)
class CountExactAgent:
    """Full per-agent state of protocol `CountExact` (Figure 3)."""

    junta: JuntaState
    clock: PhaseClockState
    election: FastLeaderElectionState
    approximation: ApproximationStageState
    refinement: RefinementStageState

    def key(self) -> Hashable:
        return (
            self.junta.key(),
            self.clock.key(),
            self.election.key(),
            self.approximation.key(),
            self.refinement.key(),
        )

    def reinitialise(self) -> None:
        """Reset the downstream state (Algorithm 3, line 2)."""
        self.clock.reset()
        self.election.reset()
        self.approximation.reset()
        self.refinement.reset()


class CountExactProtocol(Protocol[CountExactAgent]):
    """The uniform protocol `CountExact` of Theorem 2 (Algorithm 3).

    Args:
        params: Tunable constants (clock modulus, injection exponents, ``C``).
    """

    name = "count-exact"
    # The only randomness is the leader election's synthetic coin (flip).
    pure_key_transitions = True

    def __init__(self, params: CountExactParameters = CountExactParameters()) -> None:
        self.params = params

    # ----------------------------------------------------------------- API
    def initial_state(self, agent_id: int) -> CountExactAgent:
        return CountExactAgent(
            junta=JuntaState(),
            clock=PhaseClockState(),
            election=FastLeaderElectionState(),
            approximation=ApproximationStageState(),
            refinement=RefinementStageState(),
        )

    def transition(
        self, initiator: CountExactAgent, responder: CountExactAgent, rng: random.Random
    ) -> None:
        u, v = initiator, responder
        params = self.params

        # Line 1-3: junta process and re-initialisation on higher levels.
        u_saw_higher, v_saw_higher = junta_update_pair(u.junta, v.junta)
        if u_saw_higher:
            u.reinitialise()
        if v_saw_higher:
            v.reinitialise()

        # Line 4: phase clocks for both participants.
        u_clock_before = u.clock.clock
        v_clock_before = v.clock.clock
        u_ticked = phase_clock_update(
            u.clock, v_clock_before, is_junta=u.junta.junta, modulus=params.clock_modulus
        )
        v_ticked = phase_clock_update(
            v.clock, u_clock_before, is_junta=v.junta.junta, modulus=params.clock_modulus
        )
        # Stage phase counters advance on every clock tick of a participating
        # agent, independent of which stage the initiator is dispatching to.
        if u_ticked:
            if u.election.leader_done and not u.approximation.apx_done:
                advance_approximation_phase(
                    u.approximation, is_leader=u.election.leader, level=u.junta.level, params=params
                )
            advance_refinement_phase(u.refinement, is_leader=u.election.leader, params=params)
        if v_ticked:
            if v.election.leader_done and not v.approximation.apx_done:
                advance_approximation_phase(
                    v.approximation, is_leader=v.election.leader, level=v.junta.level, params=params
                )
            advance_refinement_phase(v.refinement, is_leader=v.election.leader, params=params)

        # Lines 5-10: stage dispatch on the initiator's flags.
        if not u.election.leader_done:
            # Stage 1: fast leader election.
            fast_leader_election_update(
                u.election,
                v.election,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
                u_level=u.junta.level,
                rng=rng,
                params=params.leader_election,
            )
        elif not u.approximation.apx_done:
            # Stage 2: approximation stage.
            approximation_stage_update(u.approximation, v.approximation)
            v.election.leader_done = True
        else:
            # Stage 3: refinement stage.
            if not u.refinement.entered:
                u.refinement.enter(k=u.approximation.k)
            refinement_stage_update(u.refinement, v.refinement)
            v.election.leader_done = True
            if not v.approximation.apx_done:
                v.approximation.apx_done = True
                v.approximation.k = u.approximation.k

        u.clock.first_tick = False

    def output(self, state: CountExactAgent) -> Optional[int]:
        """The agent's estimate of the exact population size ``n``."""
        return refinement_output(state.refinement, self.params)

    def state_key(self, state: CountExactAgent) -> Hashable:
        # The component keys and `clock_key`, built in one frame: every
        # transition of a dense run builds two.  As in `Approximate`, the raw
        # phase counter is bookkeeping; the protocol consumes it only through
        # tick events and small residues.
        junta = state.junta
        clock = state.clock
        election = state.election
        approximation = state.approximation
        refinement = state.refinement
        return (
            (junta.level, junta.active, junta.junta, junta.reached_level),
            (clock.clock, clock.phase % PHASE_RESIDUE_MODULUS, clock.first_tick),
            (
                election.leader,
                election.leader_done,
                election.value,
                election.bits_drawn,
                election.best_seen,
                election.best_tag,
                election.phases_completed,
            ),
            (approximation.i, approximation.load, approximation.k, approximation.apx_done),
            (refinement.entered, refinement.phase, refinement.k, refinement.load, refinement.error),
        )

    # --------------------------------------------------- key-level transitions
    def state_from_key(self, key: Hashable) -> CountExactAgent:
        junta, clock, election, approximation, refinement = key  # type: ignore[misc]
        return CountExactAgent(
            junta=junta_from_key(junta),
            clock=clock_from_key(clock),
            election=fast_election_from_key(election),
            approximation=approximation_from_key(approximation),
            refinement=refinement_from_key(refinement),
        )

    def supports_key_transitions(self) -> bool:
        # Exactness of the mod-40 phase residue (see repro.counting.keys).
        return residue_compatible(self.params.leader_election.tag_modulus)

    def output_key(self, key: Hashable) -> Optional[int]:
        # Refinement key fields: (entered, phase, k, load, error).
        entered, _, k, load, _ = key[4]  # type: ignore[index]
        return refinement_estimate(entered, k, load, self.params)

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({self.state_key(self.initial_state(0)): n})

    # ----------------------------------------------------------- conveniences
    def convergence_predicate(self, n: int) -> OutputPredicate:
        """Theorem 2 acceptance predicate: every agent outputs exactly ``n``."""
        return all_outputs_equal(n)

    @staticmethod
    def leader_count(states) -> int:
        """Number of agents currently holding the leader flag (diagnostics)."""
        return sum(1 for state in states if state.election.leader)
