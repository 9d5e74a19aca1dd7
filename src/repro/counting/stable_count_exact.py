"""Stable `CountExact` — Appendix F (Theorem 2).

The stable variant of `CountExact` is a hybrid, exactly like the stable
variant of `Approximate`: the fast protocol runs alongside the always-correct
exact backup protocol of Appendix C.2, and every detected inconsistency makes
the population fall back to the backup.  The error sources checked here
(Appendix F):

* two agents that both concluded `FastLeaderElection` as leaders interact;
* two agents whose phase-clock counters have drifted apart interact
  (checked once both have ``leaderDone``; a drift of two or more phases is
  flagged — a transient difference of one occurs at every healthy phase
  boundary, see :mod:`repro.counting.error_detection`);
* an agent reaches the refinement multiplication with fewer than ``2^5``
  tokens, or two interacting agents disagree on the estimate ``k``.

On an error every agent restarts a fresh incarnation of the exact backup
protocol and outputs its value; otherwise the output is the refinement
stage's exact count.
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
from .backup import ExactBackupState, exact_backup_update
from .keys import (
    approximation_from_key,
    clock_from_key,
    clock_key,
    exact_backup_from_key,
    fast_election_from_key,
    junta_from_key,
    phase_distance,
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

__all__ = ["StableCountExactAgent", "StableCountExactProtocol"]


@dataclass(slots=True)
class StableCountExactAgent:
    """Full per-agent state of the stable `CountExact` hybrid protocol."""

    junta: JuntaState
    clock: PhaseClockState
    election: FastLeaderElectionState
    approximation: ApproximationStageState
    refinement: RefinementStageState
    backup: ExactBackupState
    error: bool = False

    def key(self) -> Hashable:
        return (
            self.junta.key(),
            self.clock.key(),
            self.election.key(),
            self.approximation.key(),
            self.refinement.key(),
            self.backup.key(),
            self.error,
        )

    def reinitialise(self) -> None:
        """Reset the fast path; the backup protocol survives (Appendix F)."""
        self.clock.reset()
        self.election.reset()
        self.approximation.reset()
        self.refinement.reset()

    def raise_error(self) -> None:
        """Record an error and restart a fresh backup incarnation."""
        if not self.error:
            self.error = True
            self.backup.restart()


class StableCountExactProtocol(Protocol[StableCountExactAgent]):
    """The stable variant of protocol `CountExact` (Theorem 2 / Appendix F).

    Args:
        params: Tunable constants shared with :class:`CountExactProtocol`.
    """

    name = "count-exact-stable"
    # The only randomness is the leader election's synthetic coin (flip).
    pure_key_transitions = True

    def __init__(self, params: CountExactParameters = CountExactParameters()) -> None:
        self.params = params

    # ----------------------------------------------------------------- API
    def initial_state(self, agent_id: int) -> StableCountExactAgent:
        return StableCountExactAgent(
            junta=JuntaState(),
            clock=PhaseClockState(),
            election=FastLeaderElectionState(),
            approximation=ApproximationStageState(),
            refinement=RefinementStageState(),
            backup=ExactBackupState(),
        )

    def transition(
        self,
        initiator: StableCountExactAgent,
        responder: StableCountExactAgent,
        rng: random.Random,
    ) -> None:
        u, v = initiator, responder
        params = self.params

        u_saw_higher, v_saw_higher = junta_update_pair(u.junta, v.junta)
        if u_saw_higher:
            u.reinitialise()
        if v_saw_higher:
            v.reinitialise()

        u_clock_before = u.clock.clock
        v_clock_before = v.clock.clock
        u_ticked = False
        v_ticked = False
        if not u.error:
            u_ticked = phase_clock_update(
                u.clock, v_clock_before, is_junta=u.junta.junta, modulus=params.clock_modulus
            )
        if not v.error:
            v_ticked = phase_clock_update(
                v.clock, u_clock_before, is_junta=v.junta.junta, modulus=params.clock_modulus
            )

        if u_ticked:
            if u.election.leader_done and not u.approximation.apx_done:
                advance_approximation_phase(
                    u.approximation, is_leader=u.election.leader, level=u.junta.level, params=params
                )
            advance_refinement_phase(
                u.refinement,
                is_leader=u.election.leader,
                check_min_load=True,
                params=params,
            )
        if v_ticked:
            if v.election.leader_done and not v.approximation.apx_done:
                advance_approximation_phase(
                    v.approximation, is_leader=v.election.leader, level=v.junta.level, params=params
                )
            advance_refinement_phase(
                v.refinement,
                is_leader=v.election.leader,
                check_min_load=True,
                params=params,
            )

        # Error source 1: two finished leaders meet.
        if (
            u.election.leader_done
            and v.election.leader_done
            and u.election.leader
            and v.election.leader
        ):
            u.raise_error()
            v.raise_error()

        # Error source 2: phase-clock drift after the election has concluded.
        # Read through the circular mod-40 metric so that the check agrees
        # with the reduced state keys (see repro.counting.keys.phase_distance).
        if (
            not u_saw_higher
            and not v_saw_higher
            and u.election.leader_done
            and v.election.leader_done
            and phase_distance(u.clock.phase, v.clock.phase) >= 2
        ):
            u.raise_error()
            v.raise_error()

        # Error source 3: in-stage refinement checks (set by the stage itself).
        if u.refinement.error:
            u.raise_error()
        if v.refinement.error:
            v.raise_error()

        # Error epidemic.
        if v.error and not u.error:
            u.raise_error()
        elif u.error and not v.error:
            v.raise_error()

        if u.error:
            exact_backup_update(u.backup, v.backup)
            u.clock.first_tick = False
            return

        # Stage dispatch (Algorithm 3).
        if not u.election.leader_done:
            fast_leader_election_update(
                u.election,
                v.election,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
                u_level=u.junta.level,
                rng=rng,
                params=params.leader_election,
            )
            if not u.election.leader_done and not v.election.leader_done:
                exact_backup_update(u.backup, v.backup)
        elif not u.approximation.apx_done:
            approximation_stage_update(u.approximation, v.approximation)
            v.election.leader_done = True
        else:
            if not u.refinement.entered:
                u.refinement.enter(k=u.approximation.k)
            refinement_stage_update(u.refinement, v.refinement, check_consistency=True)
            v.election.leader_done = True
            if not v.approximation.apx_done:
                v.approximation.apx_done = True
                v.approximation.k = u.approximation.k
            if u.refinement.error:
                u.raise_error()
            if v.refinement.error:
                v.raise_error()

        u.clock.first_tick = False

    def output(self, state: StableCountExactAgent) -> Optional[int]:
        """Exact population size from the fast path, or the backup's count."""
        if not state.error:
            estimate = refinement_output(state.refinement, self.params)
            if estimate is not None:
                return estimate
        return state.backup.count

    def state_key(self, state: StableCountExactAgent) -> Hashable:
        return (
            state.junta.key(),
            clock_key(state.clock),
            state.election.key(),
            state.approximation.key(),
            state.refinement.key(),
            state.backup.key(),
            state.error,
        )

    # --------------------------------------------------- key-level transitions
    def state_from_key(self, key: Hashable) -> StableCountExactAgent:
        junta, clock, election, approximation, refinement, backup, error = key  # type: ignore[misc]
        return StableCountExactAgent(
            junta=junta_from_key(junta),
            clock=clock_from_key(clock),
            election=fast_election_from_key(election),
            approximation=approximation_from_key(approximation),
            refinement=refinement_from_key(refinement),
            backup=exact_backup_from_key(backup),
            error=error,
        )

    def supports_key_transitions(self) -> bool:
        # Exactness of the mod-40 phase residue (see repro.counting.keys).
        return residue_compatible(self.params.leader_election.tag_modulus)

    def output_key(self, key: Hashable) -> Optional[int]:
        refinement_key, backup_key, error = key[4], key[5], key[6]  # type: ignore[index]
        if not error:
            # Refinement key fields: (entered, phase, k, load, error).
            entered, _, k, load, _ = refinement_key
            estimate = refinement_estimate(entered, k, load, self.params)
            if estimate is not None:
                return estimate
        return exact_backup_from_key(backup_key).count

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({self.state_key(self.initial_state(0)): n})

    # ----------------------------------------------------------- conveniences
    def convergence_predicate(self, n: int) -> OutputPredicate:
        """Theorem 2 acceptance predicate: every agent outputs exactly ``n``."""
        return all_outputs_equal(n)

    @staticmethod
    def error_count(states) -> int:
        """Number of agents currently flagging an error (diagnostics)."""
        return sum(1 for state in states if state.error)
