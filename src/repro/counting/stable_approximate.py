"""Stable `Approximate` — Section 3.4 and Appendix B (Theorem 1, statements 2–3).

The stable protocol is a *hybrid*: it runs protocol `Approximate` and, in
parallel, the always-correct backup protocol of Appendix C.1.  The fast path
is validated by the error-detection stage (Algorithm 7); every detected
inconsistency — more than one leader finishing the election, a
phase-clock desynchronisation, or an implausible load after the validation
balancing — raises an ``error`` flag that spreads by one-way epidemics and
makes every agent restart a fresh instance of the backup protocol and output
its result instead.  Because the backup protocol is correct with probability
1, so is the hybrid; because errors only occur with probability
``n^-Omega(1)``, the hybrid still stabilises in ``O(n log^2 n)`` interactions
w.h.p.

Output semantics: an agent outputs the validated estimate from the
error-detection stage once it has completed it (and no error is known),
otherwise it outputs the backup protocol's current estimate
(``floor(log2 n)`` once the backup has stabilised).

Theorem 1(3): when ``relaxed_output=True`` the backup protocol does not
broadcast its maximum (dropping the ``k_max`` variable and with it the extra
``O(log n)`` state factor); in that mode up to ``log n`` agents — the ones
still holding backup token piles after an error — may output an incorrect
value, exactly as the paper allows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional

from ..engine.convergence import OutputPredicate, fraction_outputs_satisfy, outputs_in
from ..engine.protocol import Protocol
from ..primitives.junta import JuntaState, junta_update_pair
from ..primitives.leader_election import LeaderElectionState, leader_election_update
from ..primitives.phase_clock import PhaseClockState, phase_clock_update
from .approximate import log_estimate_targets
from .backup import ApproximateBackupState, approximate_backup_update
from .error_detection import (
    ErrorDetectionState,
    advance_detection_phase,
    error_detection_update,
)
from .keys import (
    approximate_backup_from_key,
    clock_from_key,
    clock_key,
    detection_from_key,
    election_from_key,
    junta_from_key,
    residue_compatible,
    search_from_key,
)
from .params import ApproximateParameters
from .search import SearchState, search_update

__all__ = ["StableApproximateAgent", "StableApproximateProtocol"]


@dataclass(slots=True)
class StableApproximateAgent:
    """Full per-agent state of the stable `Approximate` hybrid protocol."""

    junta: JuntaState
    clock: PhaseClockState
    election: LeaderElectionState
    search: SearchState
    detection: ErrorDetectionState
    backup: ApproximateBackupState
    error: bool = False

    def key(self) -> Hashable:
        return (
            self.junta.key(),
            self.clock.key(),
            self.election.key(),
            self.search.key(),
            self.detection.key(),
            self.backup.key(),
            self.error,
        )

    def reinitialise(self) -> None:
        """Reset the fast path (clock, election, search, detection).

        The backup protocol deliberately survives re-initialisations: it is
        the independent slow path and must keep its tokens.
        """
        self.clock.reset()
        self.election.reset()
        self.search.reset()
        self.detection.reset()

    def raise_error(self) -> None:
        """Record an error and restart a fresh backup incarnation (Appendix B)."""
        if not self.error:
            self.error = True
            self.backup.restart()


class StableApproximateProtocol(Protocol[StableApproximateAgent]):
    """The stable variant of protocol `Approximate` (Theorem 1, statements 2–3).

    Args:
        params: Tunable constants shared with :class:`ApproximateProtocol`.
        relaxed_output: When ``True`` the backup's maximum broadcast is
            disabled (Theorem 1(3): only ``n - log n`` agents need the
            correct output, saving an ``O(log n)`` state factor).
    """

    name = "approximate-stable"
    # The only randomness is the leader election's synthetic coin (flip).
    pure_key_transitions = True

    def __init__(
        self,
        params: ApproximateParameters = ApproximateParameters(),
        relaxed_output: bool = False,
    ) -> None:
        self.params = params
        self.relaxed_output = relaxed_output

    # ----------------------------------------------------------------- API
    def initial_state(self, agent_id: int) -> StableApproximateAgent:
        return StableApproximateAgent(
            junta=JuntaState(),
            clock=PhaseClockState(),
            election=LeaderElectionState(),
            search=SearchState(),
            detection=ErrorDetectionState(),
            backup=ApproximateBackupState(),
        )

    def transition(
        self,
        initiator: StableApproximateAgent,
        responder: StableApproximateAgent,
        rng: random.Random,
    ) -> None:
        u, v = initiator, responder

        # Junta process + re-initialisation of the fast path on higher levels.
        u_saw_higher, v_saw_higher = junta_update_pair(u.junta, v.junta)
        if u_saw_higher:
            u.reinitialise()
        if v_saw_higher:
            v.reinitialise()

        # Phase clocks.  Agents freeze their clock once they reach the final
        # error-detection phase (Algorithm 7, line 23) or switch to the backup.
        u_clock_before = u.clock.clock
        v_clock_before = v.clock.clock
        u_ticked = False
        v_ticked = False
        if not u.detection.finished and not u.error:
            u_ticked = phase_clock_update(
                u.clock, v_clock_before, is_junta=u.junta.junta, modulus=self.params.clock_modulus
            )
        if not v.detection.finished and not v.error:
            v_ticked = phase_clock_update(
                v.clock, u_clock_before, is_junta=v.junta.junta, modulus=self.params.clock_modulus
            )

        # Error-detection phase counters advance on every clock tick of an
        # entered agent, independently of which stage the initiator is in.
        if u_ticked:
            advance_detection_phase(u.detection)
        if v_ticked:
            advance_detection_phase(v.detection)

        # Error source 1: two agents both finished leader election as leaders.
        if (
            u.election.leader_done
            and v.election.leader_done
            and u.election.leader
            and v.election.leader
        ):
            u.raise_error()
            v.raise_error()

        # Error epidemic.
        if v.error and not u.error:
            u.raise_error()
        elif u.error and not v.error:
            v.raise_error()

        if u.error:
            # Both agents are in (or have just joined) the backup incarnation.
            approximate_backup_update(u.backup, v.backup)
            u.clock.first_tick = False
            return

        # Stage dispatch on the initiator's flags (Algorithm 2 / Appendix B).
        if not u.election.leader_done:
            # Stage 1: leader election, with the backup running in parallel.
            leader_election_update(
                u.election,
                v.election,
                u_phase=u.clock.phase,
                u_first_tick=u.clock.first_tick,
                u_level=u.junta.level,
                rng=rng,
                params=self.params.leader_election,
            )
            if not u.election.leader_done and not v.election.leader_done:
                approximate_backup_update(u.backup, v.backup)
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
            if u.election.leader_done:
                v.election.leader_done = True
        else:
            # Stage 3: error detection instead of plain broadcasting.
            corrected = error_detection_update(
                u.detection,
                v.detection,
                u_leader=u.election.leader,
                v_leader=v.election.leader,
                u_search_k=u.search.k,
                u_first_tick=u.clock.first_tick,
                params=self.params,
            )
            if corrected is not None:
                u.search.k = corrected
            # Entering error detection doubles as the stage flag of the paper
            # (Algorithm 7, line 2 sets ApxDone_v), so the responder now
            # dispatches to the error-detection stage itself.
            v.election.leader_done = True
            v.search.search_done = True
            if u.detection.error:
                u.raise_error()
            if v.detection.error:
                v.raise_error()

        u.clock.first_tick = False

    def output(self, state: StableApproximateAgent) -> Optional[int]:
        """Validated fast-path estimate, falling back to the backup protocol."""
        if not state.error and state.detection.finished:
            return state.detection.k
        if self.relaxed_output:
            return state.backup.k if state.backup.k >= 0 else state.backup.k_max
        return state.backup.k_max

    def state_key(self, state: StableApproximateAgent) -> Hashable:
        backup_key = (
            (state.backup.k, state.backup.instance)
            if self.relaxed_output
            else state.backup.key()
        )
        return (
            state.junta.key(),
            clock_key(state.clock),
            state.election.key(),
            state.search.key(),
            state.detection.key(),
            backup_key,
            state.error,
        )

    # --------------------------------------------------- key-level transitions
    def state_from_key(self, key: Hashable) -> StableApproximateAgent:
        junta, clock, election, search, detection, backup, error = key  # type: ignore[misc]
        return StableApproximateAgent(
            junta=junta_from_key(junta),
            clock=clock_from_key(clock),
            election=election_from_key(election),
            search=search_from_key(search),
            detection=detection_from_key(detection),
            backup=approximate_backup_from_key(backup, relaxed=self.relaxed_output),
            error=error,
        )

    def supports_key_transitions(self) -> bool:
        # The mod-40 phase residue must be exact (repro.counting.keys).  The
        # relaxed-output key additionally drops the backup's k_max while the
        # output function still reads it for every token-less agent, so the
        # key is lossy with respect to the *output* — native key transitions
        # would make nearly the whole population output the reconstructed
        # k_max = 0 after an error, far beyond the up-to-log(n) wrong agents
        # Theorem 1(3) allows.  Relaxed mode therefore declines the native
        # path (the batch backend falls back to the lifted adapter).
        if self.relaxed_output:
            return False
        return residue_compatible(5, self.params.leader_election.signal_tag_modulus)

    def output_key(self, key: Hashable) -> Optional[int]:
        detection_key, backup_key, error = key[4], key[5], key[6]  # type: ignore[index]
        detection = detection_from_key(detection_key)
        if not error and detection.finished:
            return detection.k
        backup = approximate_backup_from_key(backup_key, relaxed=self.relaxed_output)
        if self.relaxed_output:
            return backup.k if backup.k >= 0 else backup.k_max
        return backup.k_max

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({self.state_key(self.initial_state(0)): n})

    # ----------------------------------------------------------- conveniences
    def convergence_predicate(self, n: int) -> OutputPredicate:
        """Acceptance predicate for Theorem 1's stable statements."""
        targets = log_estimate_targets(n)
        if self.relaxed_output:
            import math

            fraction = 1.0 - math.log2(n) / n if n > 4 else 0.5
            return fraction_outputs_satisfy(lambda value: value in targets, fraction)
        return outputs_in(targets)

    @staticmethod
    def error_count(states) -> int:
        """Number of agents currently flagging an error (diagnostics)."""
        return sum(1 for state in states if state.error)
