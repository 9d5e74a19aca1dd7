"""Tunable constants for the auxiliary protocols.

The paper's constructions use constants tied to asymptotic proofs (e.g.
``2^(level - 8)`` random bits in fast leader election, ``2^13`` phases,
junta levels ``log log n ± 8``).  At laptop-simulation scales
(``n <= 2^13`` so ``log log n <= 4``) those literal constants degenerate
(``2^(level - 8) < 1``), so every such constant is exposed here as a
parameter with a default calibrated for simulation scales.  The *structure*
of the protocols — what is stored, which rule fires when, how quantities are
derived from the junta level — is unchanged.

The helper :func:`level_scaled` implements the recurring pattern
``factor * 2^(level - offset)``: because the junta level concentrates around
``log log n`` (Lemma 4), ``2^level`` is a coarse stand-in for ``log n`` and
``2^(2^level)`` for ``n``, which is how the paper derives population-size
dependent quantities *uniformly* (from the protocol's own state, never from
``n`` itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..engine.errors import ConfigurationError

__all__ = [
    "level_scaled",
    "LeaderElectionParameters",
    "FastLeaderElectionParameters",
]


def level_scaled(level: int, factor: float = 1.0, offset: int = 0, minimum: int = 1) -> int:
    """Return ``max(minimum, round(factor * 2^(level - offset)))``.

    ``level`` is a junta level, so ``2^level`` tracks ``log2 n`` up to
    constants (Lemma 4); this helper is the uniform way the protocols derive
    "about ``log n``"-sized quantities.  Negative exponents are clamped to
    zero so small populations degrade gracefully instead of collapsing to
    fractional values.
    """
    if minimum < 0:
        raise ConfigurationError("minimum must be non-negative")
    exponent = max(0, level - offset)
    return max(minimum, int(round(factor * (1 << exponent))))


@dataclass(frozen=True)
class LeaderElectionParameters:
    """Constants of the slow/stable leader-election protocol (Lemma 6, [18]).

    Attributes:
        phase_factor: Multiplier applied to ``2^level`` to obtain the number
            of coin-halving phases a contender completes before declaring
            ``leaderDone``.  This replaces the paper's outer phase clock, so
            the horizon is derived uniformly from the junta level.
        level_offset: Offset subtracted from the junta level in the phase
            threshold.
        min_phases: Lower bound on the number of phases regardless of level.
        signal_tag_modulus: Modulus of the phase tag attached to the
            "some contender flipped heads" epidemic, protecting it against
            stale values from earlier phases.
    """

    phase_factor: float = 6.0
    level_offset: int = 0
    min_phases: int = 8
    signal_tag_modulus: int = 4

    def phase_threshold(self, level: int) -> int:
        """Number of completed phases after which a contender sets leaderDone."""
        return level_scaled(
            level, factor=self.phase_factor, offset=self.level_offset, minimum=self.min_phases
        )


@dataclass(frozen=True)
class FastLeaderElectionParameters:
    """Constants of `FastLeaderElection` (Lemma 7, [8], Appendix D).

    Attributes:
        rounds: Number of (draw phase, broadcast phase) pairs before
            ``leaderDone`` is declared.  The paper uses a large constant
            number of phases (``2^13``); a handful of rounds with enough bits
            per round achieves the same uniqueness probability at simulation
            scales.
        bits_factor: Multiplier applied to ``2^level`` for the number of
            random bits drawn per round (the paper's ``2^(level - 8)``).
        bits_level_offset: Offset in the exponent of the bit-count formula.
        bits_extra: Additional bits added on top of the level-derived count,
            so that even tiny populations draw enough bits to avoid ties.
        tag_modulus: Modulus of the phase tag attached to the broadcast
            maxima (stale-value protection).
    """

    rounds: int = 3
    bits_factor: float = 1.0
    bits_level_offset: int = 0
    bits_extra: int = 6
    tag_modulus: int = 8
    #: Level -> :meth:`bits`, filled on first use: a contender asks once
    #: per drawn bit.  Not a parameter (no init, repr or comparison).
    _bits_by_level: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def bits(self, level: int) -> int:
        """Number of random bits a contender draws per round at a given level."""
        try:
            return self._bits_by_level[level]
        except KeyError:
            budget = self._bits_by_level[level] = (
                level_scaled(
                    level, factor=self.bits_factor, offset=self.bits_level_offset, minimum=1
                )
                + self.bits_extra
            )
            return budget

    @property
    def total_phases(self) -> int:
        """Total number of phases (draw + broadcast) before leaderDone."""
        return 2 * self.rounds
