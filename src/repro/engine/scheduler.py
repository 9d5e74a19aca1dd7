"""Interaction schedulers.

The probabilistic population model draws, at every discrete time step, an
ordered pair of distinct agents uniformly at random: the *initiator* and the
*responder*.  :class:`UniformRandomScheduler` implements exactly that model
and is used by every experiment.  Deterministic schedulers are provided for
tests (replaying adversarial interaction sequences, stressing stability
proofs which quantify over *all* schedules).
"""

from __future__ import annotations

import abc
import random
from typing import Iterable, List, Tuple

from .errors import ConfigurationError, SimulationError

__all__ = [
    "Scheduler",
    "UniformRandomScheduler",
    "SequenceScheduler",
    "RoundRobinScheduler",
]

Pair = Tuple[int, int]


class Scheduler(abc.ABC):
    """Chooses the ordered (initiator, responder) pair for each interaction."""

    @abc.abstractmethod
    def next_pair(self, n: int, rng: random.Random, interaction: int) -> Pair:
        """Return the ordered agent pair for interaction number ``interaction``.

        Args:
            n: Population size.
            rng: The simulation's scheduler random stream.
            interaction: Zero-based index of the interaction being scheduled.
        """

    def reset(self) -> None:
        """Reset any internal iteration state (no-op for stateless schedulers)."""


class UniformRandomScheduler(Scheduler):
    """The standard probabilistic scheduler of the population model.

    Each interaction selects an ordered pair of two *distinct* agents
    independently and uniformly at random among the ``n * (n - 1)`` ordered
    pairs.
    """

    def next_pair(self, n: int, rng: random.Random, interaction: int) -> Pair:
        if n < 2:
            raise ConfigurationError("the population model requires at least two agents")
        initiator = rng.randrange(n)
        responder = rng.randrange(n - 1)
        if responder >= initiator:
            responder += 1
        return initiator, responder


class SequenceScheduler(Scheduler):
    """Replay a fixed sequence of ordered pairs.

    Useful for unit tests and for exercising worst-case schedules in the
    stability arguments (the paper's stable protocols must be correct under
    *every* fair schedule, not just the random one).

    Args:
        pairs: The ordered pairs to replay.
        cycle: When ``True`` the sequence repeats forever; when ``False`` the
            scheduler raises :class:`SimulationError` once exhausted.
    """

    def __init__(self, pairs: Iterable[Pair], cycle: bool = False) -> None:
        self._pairs: List[Pair] = [(int(a), int(b)) for a, b in pairs]
        if not self._pairs:
            raise ConfigurationError("SequenceScheduler requires at least one pair")
        for a, b in self._pairs:
            if a == b:
                raise ConfigurationError("scheduler pairs must consist of distinct agents")
        self._cycle = cycle
        self._index = 0

    def next_pair(self, n: int, rng: random.Random, interaction: int) -> Pair:
        if self._index >= len(self._pairs):
            if not self._cycle:
                raise SimulationError("SequenceScheduler exhausted its pair list")
            self._index = 0
        pair = self._pairs[self._index]
        self._index += 1
        if pair[0] >= n or pair[1] >= n:
            raise ConfigurationError(
                f"scheduled pair {pair} out of range for population size {n}"
            )
        return pair

    def reset(self) -> None:
        self._index = 0


class RoundRobinScheduler(Scheduler):
    """Cycle deterministically through all ordered pairs of distinct agents.

    This scheduler is *fair* (every pair occurs infinitely often), which makes
    it a convenient deterministic stand-in for probability-1 stabilisation
    tests of the always-correct backup protocols.
    """

    def __init__(self, shuffle_each_round: bool = False) -> None:
        self._shuffle = shuffle_each_round
        self._order: List[Pair] = []
        self._index = 0
        self._n = -1

    def _rebuild(self, n: int, rng: random.Random) -> None:
        self._order = [(a, b) for a in range(n) for b in range(n) if a != b]
        if self._shuffle:
            rng.shuffle(self._order)
        self._index = 0
        self._n = n

    def next_pair(self, n: int, rng: random.Random, interaction: int) -> Pair:
        if n < 2:
            raise ConfigurationError("the population model requires at least two agents")
        if n != self._n or self._index >= len(self._order):
            self._rebuild(n, rng)
        pair = self._order[self._index]
        self._index += 1
        return pair

    def reset(self) -> None:
        self._index = 0
        self._n = -1
