"""Key <-> state codecs for the composed counting protocols.

The batch backend (:mod:`repro.engine.backends`) manipulates configurations
as histograms of *state keys* and needs key-level transitions.  Until PR 2
the counting stack relied on the generic
:class:`~repro.engine.backends.LiftedKeyTransitions` adapter, which keeps one
representative state object per observed key — an unbounded registry that is
neither picklable (the multiprocessing sweep driver spawns fresh workers) nor
cheap (two deep copies per event).  The composed protocols' keys are in fact
*self-describing*: every component key is the ordered tuple of the component
dataclass's fields, so a state with the observed behaviour can be rebuilt
from the key alone.  This module hosts the component decoders; each
protocol composes them into its
:meth:`~repro.engine.protocol.Protocol.state_from_key`, under which the base
:meth:`~repro.engine.protocol.Protocol.delta_key` runs ``transition``.

Exactness
---------
The composed protocols reduce the phase-clock counter in their ``state_key``
to ``phase % PHASE_RESIDUE_MODULUS`` (the raw counter is unbounded
bookkeeping).  Decoding therefore yields a state whose ``clock.phase`` is the
residue, not the original counter — which is *behaviourally identical*,
because every consumer of the phase divides ``PHASE_RESIDUE_MODULUS = 40``:

* the Search Protocol round structure uses ``phase % 5``;
* the slow leader election's signal tag uses ``phase % 4``
  (:class:`~repro.primitives.params.LeaderElectionParameters.signal_tag_modulus`);
* `FastLeaderElection`'s broadcast tag uses ``phase % 8``
  (:class:`~repro.primitives.params.FastLeaderElectionParameters.tag_modulus`);

and the only mutation of the counter is ``phase += 1`` on a clock tick, which
commutes with taking residues.  Stage-internal phase counters (approximation
``i``, refinement/error-detection ``phase'``) are bounded and stored in full.

The same argument covers the live states the batch backend's dense regime
hands ``delta_key`` instead of decoding keys again: the *owned states* it
keeps per id from earlier memo misses, and the per-agent-slot states of its
one-agent-one-state mode, kept from earlier transitions on that slot.  Such
a state differs from a decoded one only in carrying the raw counter where
decoding gives the residue.

Protocols whose parameters use non-default tag moduli that do not divide 40
fall outside this argument; :func:`residue_compatible` checks the condition
so such protocols can refuse native key transitions instead of silently
diverging.
"""

from __future__ import annotations

from typing import Hashable, Tuple

from ..primitives.fast_leader_election import FastLeaderElectionState
from ..primitives.junta import JuntaState
from ..primitives.leader_election import LeaderElectionState
from ..primitives.phase_clock import PhaseClockState
from .approximation_stage import ApproximationStageState
from .backup import ApproximateBackupState, ExactBackupState
from .error_detection import ErrorDetectionState
from .refinement_stage import RefinementStageState
from .search import SearchState

__all__ = [
    "PHASE_RESIDUE_MODULUS",
    "residue_compatible",
    "clock_key",
    "phase_distance",
    "junta_from_key",
    "clock_from_key",
    "election_from_key",
    "fast_election_from_key",
    "search_from_key",
    "approximation_from_key",
    "refinement_from_key",
    "detection_from_key",
    "approximate_backup_from_key",
    "exact_backup_from_key",
]

#: The residue modulus applied to the phase-clock counter in the composed
#: protocols' ``state_key``; the lcm of every per-phase consumer (5, 4, 8).
PHASE_RESIDUE_MODULUS = 40


def residue_compatible(*tag_moduli: int) -> bool:
    """Whether all given tag moduli divide :data:`PHASE_RESIDUE_MODULUS`.

    The key-level transitions are exact iff every consumer of the phase
    counter reads it modulo a divisor of the residue modulus (see module
    docstring); protocols check this once at construction.
    """
    return all(
        modulus > 0 and PHASE_RESIDUE_MODULUS % modulus == 0 for modulus in tag_moduli
    )


def clock_key(clock: PhaseClockState) -> Tuple[int, int, bool]:
    """The reduced phase-clock key used by every composed protocol."""
    return (clock.clock, clock.phase % PHASE_RESIDUE_MODULUS, clock.first_tick)


def phase_distance(phase_u: int, phase_v: int) -> int:
    """Circular distance between two phase counters modulo the residue.

    Healthy phase clocks keep interacting agents within one phase of each
    other (Lemma 5), so drift checks that compare phase counters must read
    them through this circular metric to stay exact under the mod-40 keys:
    a plain ``abs()`` of residues would see a healthy 39/40 pair as 39 apart.
    Genuine drift is flagged as soon as it reaches 2, far below the wrap.
    """
    diff = (phase_u - phase_v) % PHASE_RESIDUE_MODULUS
    return min(diff, PHASE_RESIDUE_MODULUS - diff)


# Every component ``key()`` is the ordered tuple of the dataclass's fields,
# so decoding is positional construction.  Each decoder returns a *fresh*
# mutable state safe to hand to ``transition()``.

def junta_from_key(key: Hashable) -> JuntaState:
    return JuntaState(*key)  # type: ignore[misc]


def clock_from_key(key: Hashable) -> PhaseClockState:
    return PhaseClockState(*key)  # type: ignore[misc]


def election_from_key(key: Hashable) -> LeaderElectionState:
    return LeaderElectionState(*key)  # type: ignore[misc]


def fast_election_from_key(key: Hashable) -> FastLeaderElectionState:
    return FastLeaderElectionState(*key)  # type: ignore[misc]


def search_from_key(key: Hashable) -> SearchState:
    return SearchState(*key)  # type: ignore[misc]


def approximation_from_key(key: Hashable) -> ApproximationStageState:
    return ApproximationStageState(*key)  # type: ignore[misc]


def refinement_from_key(key: Hashable) -> RefinementStageState:
    return RefinementStageState(*key)  # type: ignore[misc]


def detection_from_key(key: Hashable) -> ErrorDetectionState:
    return ErrorDetectionState(*key)  # type: ignore[misc]


def approximate_backup_from_key(key: Hashable, relaxed: bool = False) -> ApproximateBackupState:
    """Decode the approximate-backup component.

    In the relaxed-output mode of Theorem 1(3) the ``k_max`` broadcast is
    dropped from the key (the paper drops the variable altogether); decoding
    restores it as ``max(k, 0)``, matching a fresh incarnation in which the
    agent has only ever seen its own pile.
    """
    if relaxed:
        k, instance = key  # type: ignore[misc]
        return ApproximateBackupState(k=k, k_max=max(k, 0), instance=instance)
    return ApproximateBackupState(*key)  # type: ignore[misc]


def exact_backup_from_key(key: Hashable) -> ExactBackupState:
    return ExactBackupState(*key)  # type: ignore[misc]
