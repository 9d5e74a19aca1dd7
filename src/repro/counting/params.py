"""Tunable constants of the counting protocols (Sections 3 and 4).

Every constant the paper fixes asymptotically (clock modulus, the
``2^(level - 8)`` exponents, the refinement constant ``C = 2^8``, error
thresholds, …) is collected here so that experiments can sweep them and so
that the calibration used at simulation scales is explicit and documented in
one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..engine.errors import ConfigurationError
from ..primitives.params import (
    FastLeaderElectionParameters,
    LeaderElectionParameters,
    level_scaled,
)
from ..primitives.phase_clock import DEFAULT_CLOCK_MODULUS

__all__ = [
    "ApproximateParameters",
    "CountExactParameters",
    "recommended_clock_modulus",
]


def recommended_clock_modulus(n: int, target_factor: float = 6.0) -> int:
    """Suggest a phase-clock modulus for a given population size.

    Lemma 5 states that for any constant ``c`` there is a constant modulus
    ``m(c)`` making every phase at least ``c n log n`` interactions long.
    Empirically one clock hour costs roughly a constant number of parallel
    time units, so the modulus needed for a *fixed* multiple of ``n log n``
    grows slowly with ``n``.  Experiment harnesses
    use this helper to pick ``m`` so that a phase comfortably covers one
    broadcast plus one load-balancing window (``target_factor * n * log2 n``
    interactions).  The protocols themselves never call this function — it is
    calibration, not part of any transition function.
    """
    if n < 2:
        raise ConfigurationError("population size must be at least 2")
    # Empirical calibration: one clock hour costs roughly 2.5-5 parallel time
    # units (2.5n-5n interactions), so a phase of ``target_factor * n * log2 n``
    # interactions needs about ``target_factor * log2(n) / 2.5`` hours.  The
    # script that measured these figures is not in this tree.
    return max(DEFAULT_CLOCK_MODULUS, math.ceil(target_factor * math.log2(n) / 2.5))


@dataclass(frozen=True)
class ApproximateParameters:
    """Constants of protocol `Approximate` (Algorithm 2) and its stable variant.

    Attributes:
        clock_modulus: Phase-clock modulus ``m`` (Lemma 5's ``m(c)``).
        leader_election: Constants of the slow leader-election stage.
        search_phases: Number of phases in one round of the Search Protocol
            (the paper uses 5: reset, infusion, balancing, epidemics, decision).
        error_detection_load: Tokens assigned per unit token in phase 2 of the
            error-detection protocol (the paper's factor 32).
        error_min_load: Minimum per-agent load accepted in error detection
            (the paper's threshold 3).
        error_max_discrepancy: Maximum accepted load discrepancy between two
            interacting agents in error detection (the paper's threshold 2).
        infusion_offset: Exponent subtracted from the leader's ``k`` when
            injecting tokens in error detection (the paper's ``k - 2``).
    """

    clock_modulus: int = DEFAULT_CLOCK_MODULUS
    leader_election: LeaderElectionParameters = field(default_factory=LeaderElectionParameters)
    search_phases: int = 5
    error_detection_load: int = 32
    error_min_load: int = 3
    error_max_discrepancy: int = 2
    infusion_offset: int = 2

    def __post_init__(self) -> None:
        if self.clock_modulus < 4:
            raise ConfigurationError("clock_modulus must be at least 4")
        if self.search_phases != 5:
            raise ConfigurationError("the Search Protocol is defined over exactly 5 phases")
        if self.error_detection_load < 4:
            raise ConfigurationError("error_detection_load must be at least 4")


@dataclass(frozen=True)
class CountExactParameters:
    """Constants of protocol `CountExact` (Algorithm 3) and its stable variant.

    Attributes:
        clock_modulus: Phase-clock modulus ``m``.
        leader_election: Constants of the `FastLeaderElection` stage.
        eta_level_offset: Offset in the per-phase injection exponent.  The
            paper multiplies loads by ``n^eta = 2^(2^(level - 8))`` each phase
            of the approximation stage; at simulation scales the offset 8 is
            replaced by this parameter (default 1), preserving the structure
            ``eta_bits = 2^(level - offset)``.
        eta_min_bits: Lower bound on the per-phase injection exponent.
        apx_done_load: Leader load at which the approximation stage concludes
            (the paper's threshold 4, i.e. total load at least ``2n`` w.h.p.).
        refinement_constant_bits: ``log2`` of the refinement constant ``C``
            (the paper uses ``C = 2^8``).
        refinement_min_load_bits: ``log2`` of the minimum per-agent load
            required before the phase-2 multiplication in the stable variant
            (the paper uses ``2^5``).
    """

    clock_modulus: int = DEFAULT_CLOCK_MODULUS
    leader_election: FastLeaderElectionParameters = field(
        default_factory=FastLeaderElectionParameters
    )
    eta_level_offset: int = 1
    eta_min_bits: int = 1
    apx_done_load: int = 4
    refinement_constant_bits: int = 8
    refinement_min_load_bits: int = 5

    def __post_init__(self) -> None:
        if self.clock_modulus < 4:
            raise ConfigurationError("clock_modulus must be at least 4")
        if self.apx_done_load < 2:
            raise ConfigurationError("apx_done_load must be at least 2")
        if self.refinement_constant_bits < 2:
            raise ConfigurationError("refinement_constant_bits must be at least 2")

    def eta_bits(self, level: int) -> int:
        """Per-phase injection exponent: loads are multiplied by ``2^eta_bits``.

        The paper's ``n^eta`` with ``eta = 2^(level - 8) / log n``; derived
        uniformly from the junta level.
        """
        return level_scaled(
            level, factor=1.0, offset=self.eta_level_offset, minimum=self.eta_min_bits
        )

    @property
    def refinement_constant(self) -> int:
        """The refinement constant ``C`` (the paper's ``2^8``)."""
        return 1 << self.refinement_constant_bits

    @property
    def refinement_min_load(self) -> int:
        """Minimum load accepted before the phase-2 multiplication (``2^5``)."""
        return 1 << self.refinement_min_load_bits
