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
from typing import Hashable, Optional, Tuple

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

# The components a `CountExact` transition reports it may have written, as
# bits: the initiator's in the low five, the responder's shifted by
# `_RESPONDER`.
_JUNTA = 1
_CLOCK = 2
_ELECTION = 4
_APPROXIMATION = 8
_REFINEMENT = 16
_ALL = _JUNTA | _CLOCK | _ELECTION | _APPROXIMATION | _REFINEMENT
_RESPONDER = 5


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
    ) -> int:
        """Apply one interaction and report the components it wrote.

        Returns the components the interaction may have written, as
        `_JUNTA`-style bits (the responder's shifted by `_RESPONDER`);
        :meth:`transition_keys` reads them, other callers ignore them.
        """
        u, v = initiator, responder
        params = self.params
        written = 0

        # Line 1-3: junta process and re-initialisation on higher levels.
        # `junta_update_pair` writes nothing to two inactive agents on one
        # level, the settled junta every agent reaches early in a run.
        u_junta = u.junta
        v_junta = v.junta
        if u_junta.active or v_junta.active or u_junta.level != v_junta.level:
            written = _JUNTA | _JUNTA << _RESPONDER
        u_saw_higher, v_saw_higher = junta_update_pair(u_junta, v_junta)
        if u_saw_higher:
            u.reinitialise()
            written |= _ALL
        if v_saw_higher:
            v.reinitialise()
            written |= _ALL << _RESPONDER

        # Line 4: phase clocks for both participants.  A clock update writes
        # the clock only by changing its hour (a tick changes it too), and
        # the initiator's pending `first_tick` is cleared below.
        u_clock = u.clock
        v_clock = v.clock
        u_clock_before = u_clock.clock
        v_clock_before = v_clock.clock
        if u_clock.first_tick:
            written |= _CLOCK
        u_ticked = phase_clock_update(
            u_clock, v_clock_before, is_junta=u_junta.junta, modulus=params.clock_modulus
        )
        v_ticked = phase_clock_update(
            v_clock, u_clock_before, is_junta=v_junta.junta, modulus=params.clock_modulus
        )
        if u_clock.clock != u_clock_before:
            written |= _CLOCK
        if v_clock.clock != v_clock_before:
            written |= _CLOCK << _RESPONDER
        # Stage phase counters advance on every clock tick of a participating
        # agent, independent of which stage the initiator is dispatching to.
        if u_ticked:
            if u.election.leader_done and not u.approximation.apx_done:
                advance_approximation_phase(
                    u.approximation, is_leader=u.election.leader, level=u.junta.level, params=params
                )
                written |= _APPROXIMATION
            advance_refinement_phase(u.refinement, is_leader=u.election.leader, params=params)
            written |= _REFINEMENT
        if v_ticked:
            if v.election.leader_done and not v.approximation.apx_done:
                advance_approximation_phase(
                    v.approximation, is_leader=v.election.leader, level=v.junta.level, params=params
                )
                written |= _APPROXIMATION << _RESPONDER
            advance_refinement_phase(v.refinement, is_leader=v.election.leader, params=params)
            written |= _REFINEMENT << _RESPONDER

        # Lines 5-10: stage dispatch on the initiator's flags.
        if not u.election.leader_done:
            # Stage 1: fast leader election.
            if fast_leader_election_update(
                u.election,
                v.election,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
                u_level=u.junta.level,
                rng=rng,
                params=params.leader_election,
            ):
                written |= _ELECTION
        elif not u.approximation.apx_done:
            # Stage 2: approximation stage.
            if approximation_stage_update(u.approximation, v.approximation):
                written |= _APPROXIMATION | _APPROXIMATION << _RESPONDER
            if not v.election.leader_done:
                v.election.leader_done = True
                written |= _ELECTION << _RESPONDER
        else:
            # Stage 3: refinement stage.
            if not u.refinement.entered:
                u.refinement.enter(k=u.approximation.k)
            refinement_stage_update(u.refinement, v.refinement)
            written |= _REFINEMENT | _REFINEMENT << _RESPONDER
            if not v.election.leader_done:
                v.election.leader_done = True
                written |= _ELECTION << _RESPONDER
            if not v.approximation.apx_done:
                v.approximation.apx_done = True
                v.approximation.k = u.approximation.k
                written |= _APPROXIMATION << _RESPONDER

        u.clock.first_tick = False
        return written

    def output(self, state: CountExactAgent) -> Optional[int]:
        """The agent's estimate of the exact population size ``n``."""
        return refinement_output(state.refinement, self.params)

    def state_key(
        self, state: CountExactAgent, key: Optional[Hashable] = None, written: int = _ALL
    ) -> Hashable:
        """The key of ``state``, built in one frame.

        Only the components ``written`` flags (by default all) are built
        from ``state``; the others are taken from ``key``, a key ``state``
        encoded before the writes, and ``key`` itself is returned when none
        is flagged.  As in `Approximate`, the raw phase counter is
        bookkeeping; the protocol consumes it only through tick events and
        small residues.
        """
        if not written:
            return key
        if written & _JUNTA:
            junta = state.junta
            junta_key = (junta.level, junta.active, junta.junta, junta.reached_level)
        else:
            junta_key = key[0]  # type: ignore[index]
        if written & _CLOCK:
            clock = state.clock
            clock_key = (clock.clock, clock.phase % PHASE_RESIDUE_MODULUS, clock.first_tick)
        else:
            clock_key = key[1]  # type: ignore[index]
        if written & _ELECTION:
            election = state.election
            election_key = (
                election.leader,
                election.leader_done,
                election.value,
                election.bits_drawn,
                election.best_seen,
                election.best_tag,
                election.phases_completed,
            )
        else:
            election_key = key[2]  # type: ignore[index]
        if written & _APPROXIMATION:
            approximation = state.approximation
            approximation_key = (
                approximation.i, approximation.load, approximation.k, approximation.apx_done,
            )
        else:
            approximation_key = key[3]  # type: ignore[index]
        if written & _REFINEMENT:
            refinement = state.refinement
            refinement_key = (
                refinement.entered,
                refinement.phase,
                refinement.k,
                refinement.load,
                refinement.error,
            )
        else:
            refinement_key = key[4]  # type: ignore[index]
        return (junta_key, clock_key, election_key, approximation_key, refinement_key)

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

    def transition_keys(
        self,
        state_a: CountExactAgent,
        state_b: CountExactAgent,
        rng: random.Random,
        key_a: Hashable,
        key_b: Hashable,
    ) -> Tuple[Hashable, Hashable]:
        # Rebuild only the components `transition` reports it wrote; every
        # other component key is the pre-key's own tuple, which the state
        # still encodes.
        written = self.transition(state_a, state_b, rng)
        state_key = self.state_key
        return (
            state_key(state_a, key_a, written & _ALL),
            state_key(state_b, key_b, written >> _RESPONDER),
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
