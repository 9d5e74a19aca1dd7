"""Synthetic coins — Appendix D, following Alistarh et al. [1] and [11].

The population model has no intrinsic randomness available to agents beyond
the scheduler's choices.  The *synthetic coin* technique extracts fair(ish)
random bits from the schedule: every agent keeps a parity bit that it flips
on each of its interactions; the partner's parity bit is then (close to) a
uniform random bit, independent across interactions.

The composed protocols in this library draw their coin flips from the
simulator's seeded PRNG (``rng.getrandbits(1)``), which models exactly the
randomness the synthetic-coin construction provides without re-deriving the
analysis of [11].  This module implements the actual parity construction as
well so that its statistical behaviour can be validated (tests compare the
empirical bias of parity-derived bits against fair PRNG bits).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Tuple

from ..engine.protocol import Protocol

__all__ = ["flip", "flip_bits", "ParityCoinState", "ParityCoinProtocol"]


def flip(rng: random.Random) -> int:
    """Return one fair random bit (the synthetic-coin abstraction)."""
    return rng.getrandbits(1)


def flip_bits(rng: random.Random, count: int) -> int:
    """Return a ``count``-bit uniformly random integer built from coin flips."""
    if count <= 0:
        return 0
    return rng.getrandbits(count)


@dataclass(slots=True)
class ParityCoinState:
    """State of an agent in the explicit parity-coin construction.

    Attributes:
        parity: The agent's own parity bit, flipped on every interaction.
        samples: Number of partner-parity observations made as an initiator.
        ones: Number of those observations that were 1.
    """

    parity: int = 0
    samples: int = 0
    ones: int = 0

    def key(self) -> Hashable:
        return (self.parity, self.samples, self.ones)


class ParityCoinProtocol(Protocol[ParityCoinState]):
    """The explicit synthetic-coin construction of [1]/[11].

    Each agent flips its parity on every interaction it participates in.  The
    initiator additionally records the responder's (pre-flip) parity as a
    random-bit sample.  The output of an agent is the fraction of ones among
    its samples, which should concentrate around 1/2.
    """

    name = "parity-coin"
    pure_key_transitions = True

    def initial_state(self, agent_id: int) -> ParityCoinState:
        # Half the agents start with parity 1, matching the standard warm start
        # that removes the initial all-zero bias; this is part of the input
        # configuration, not of the transition function.
        return ParityCoinState(parity=agent_id % 2)

    def transition(
        self, initiator: ParityCoinState, responder: ParityCoinState, rng: random.Random
    ) -> None:
        observed = responder.parity
        initiator.samples += 1
        initiator.ones += observed
        initiator.parity ^= 1
        responder.parity ^= 1

    def output(self, state: ParityCoinState) -> float:
        if state.samples == 0:
            return 0.5
        return state.ones / state.samples

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        parity_a, samples_a, ones_a = key_a  # type: ignore[misc]
        parity_b, samples_b, ones_b = key_b  # type: ignore[misc]
        return (
            (parity_a ^ 1, samples_a + 1, ones_a + parity_b),
            (parity_b ^ 1, samples_b, ones_b),
        )

    def output_key(self, key: Hashable) -> float:
        _parity, samples, ones = key  # type: ignore[misc]
        if samples == 0:
            return 0.5
        return ones / samples

    def initial_key_counts(self, n: int) -> Counter:
        counts = Counter({(0, 0, 0): (n + 1) // 2})
        if n >= 2:
            counts[(1, 0, 0)] = n // 2
        return counts
