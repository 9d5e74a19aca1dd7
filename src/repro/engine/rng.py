"""Deterministic randomness utilities.

Every simulation in this library is reproducible from ``(parameters, n, seed)``.
To keep independent runs statistically independent while remaining
deterministic, seeds for sub-streams are derived with a SplitMix64-style
mixing function rather than by incrementing the base seed.

The helpers here are intentionally dependency-free (no ``numpy``) so that the
core library has zero runtime requirements.
"""

from __future__ import annotations

import random
from typing import List, Union

__all__ = [
    "SeedLike",
    "mix_seed",
    "derive_seed",
    "make_rng",
    "spawn_seeds",
    "spawn_rngs",
]

SeedLike = Union[int, str, None]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _to_int(seed: SeedLike) -> int:
    """Convert a seed-like value (int, str, or ``None``) to a 64-bit integer."""
    if seed is None:
        return 0
    if isinstance(seed, int):
        return seed & _MASK64
    if isinstance(seed, str):
        acc = 1469598103934665603  # FNV-1a offset basis
        for ch in seed.encode("utf-8"):
            acc ^= ch
            acc = (acc * 1099511628211) & _MASK64
        return acc
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


def mix_seed(value: int) -> int:
    """Apply the SplitMix64 finalizer to ``value`` and return a 64-bit result.

    The finalizer is a bijection on 64-bit integers with excellent avalanche
    behaviour, which makes nearby input seeds produce unrelated outputs.
    """
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: SeedLike, *keys: SeedLike) -> int:
    """Derive a child seed from ``base`` and an arbitrary sequence of keys.

    The same ``(base, keys)`` pair always yields the same child seed, and
    different key tuples yield (with overwhelming probability) unrelated
    seeds.  Keys may be integers or strings, e.g.::

        derive_seed(1234, "sweep", n, repetition)
    """
    acc = mix_seed(_to_int(base))
    for key in keys:
        acc = mix_seed(acc ^ _to_int(key))
    return acc


def make_rng(seed: SeedLike, *keys: SeedLike) -> random.Random:
    """Create a :class:`random.Random` seeded deterministically.

    Extra ``keys`` are mixed into the seed via :func:`derive_seed`, making it
    easy to create named sub-streams: ``make_rng(seed, "scheduler")``.
    """
    return random.Random(derive_seed(seed, *keys))


def spawn_seeds(base: SeedLike, count: int, *keys: SeedLike) -> List[int]:
    """Return ``count`` independent child seeds derived from ``base``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [derive_seed(base, *keys, index) for index in range(count)]


def spawn_rngs(base: SeedLike, count: int, *keys: SeedLike) -> List[random.Random]:
    """Return ``count`` independent :class:`random.Random` generators."""
    return [random.Random(seed) for seed in spawn_seeds(base, count, *keys)]
