"""The sampler behind the batch backend's dense regime.

The *dense* regime keeps one id per agent and draws the two participants'
indices from :class:`AgentPairSampler`, the implicit unit-weight table of
ordered pairs of distinct agents, in O(1).  Its fused event loop calls
:meth:`AgentPairSampler.sample` once per interaction, as a bound local, so
the draw keeps one definition and ``draws`` counts interactions.  The
*pruning* regime draws from the factorised pair kernel of
:mod:`repro.engine.vectorized` instead.

Draw-path determinism
---------------------

A draw obeys one **canonical draw contract**: it consumes exactly one
``rng.random()`` variate ``u`` and returns the key whose cumulative weight
interval (taken in the sampler's slot order) contains ``u * total``.  Any
structure evaluating the same inverse CDF maps the same random stream to
the identical key sequence while the weights stay static; the test suite
keeps a linear-scan implementation of the :class:`WeightedSampler`
interface as the differential oracle of :class:`AgentPairSampler`.
Integer totals below ``2**53`` keep every comparison in the draw path
exact, so the guarantee is bit-for-bit, not approximate.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, Hashable

from .errors import ConfigurationError

__all__ = ["WeightedSampler", "AgentPairSampler"]


class WeightedSampler(abc.ABC):
    """Dynamic weighted sampling over a ``{key: weight}`` table.

    The contract every implementation follows:

    * :meth:`sample` draws one key with probability ``weight / total``,
      consuming exactly one uniform variate and following the canonical
      inverse-CDF order (see the module docstring).
    * :meth:`update` sets one key's weight (0 removes it from the
      distribution); :meth:`rebuild` replaces the whole table.
    * :attr:`total` is the current total weight; ``len(sampler)`` the number
      of keys with positive weight.

    Stats counters (``draws``, ``updates``, ``rebuilds`` plus
    implementation-specific extras) are surfaced in
    ``SimulationResult.extra["telemetry"]["sampler"]``.
    """

    #: Stable name reported as ``strategy`` in the stats record.
    strategy: str = ""

    def __init__(self) -> None:
        self.draws = 0
        self.updates = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------- API
    @abc.abstractmethod
    def sample(self, rng: random.Random) -> Hashable:
        """Draw one key with probability proportional to its weight."""

    @abc.abstractmethod
    def update(self, key: Hashable, weight: int) -> None:
        """Set ``key``'s weight (0 removes it from the distribution)."""

    @abc.abstractmethod
    def rebuild(self, weights: Dict[Hashable, int]) -> None:
        """Replace the whole weight table (wholesale churn, restarts)."""

    @property
    @abc.abstractmethod
    def total(self) -> int:
        """Current total weight."""

    @abc.abstractmethod
    def weights(self) -> Dict[Hashable, int]:
        """Current ``{key: weight}`` table (positive weights only)."""

    def __len__(self) -> int:
        return len(self.weights())

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly counters describing the sampler's life so far."""
        return {
            "strategy": self.strategy,
            "draws": self.draws,
            "updates": self.updates,
            "rebuilds": self.rebuilds,
        }

    # ------------------------------------------------------------- internals
    def _require_positive_total(self) -> None:
        if self.total <= 0:
            raise ConfigurationError(
                f"{type(self).__name__} cannot sample from a zero-weight table"
            )


class AgentPairSampler(WeightedSampler):
    """Uniform ordered pairs ``(i, j)`` of distinct agent indices below ``n``.

    The table is implicit: every ordered pair of distinct indices has weight
    1, in lexicographic slot order, so ``total = n (n - 1)``.  A draw is the
    canonical inverse CDF over it in O(1): slot ``k = int(u * total)`` is the
    pair ``(k // (n - 1), r)`` with ``r = k % (n - 1)`` shifted past the
    initiator when ``r >= i``.  ``u < 1`` keeps ``k`` below ``total`` for
    every ``total < 2**53``, and ``int`` picks the slot the canonical scan
    picks, so the contract holds bit-for-bit.

    Only the population size changes the table, through :meth:`resize`,
    which keeps the object (and so a bound :meth:`sample` held by the dense
    event loop) valid; :meth:`update` and :meth:`rebuild` of single weights
    do not apply.
    """

    strategy = "agent-array"

    def __init__(self, n: int) -> None:
        super().__init__()
        self.resize(n)

    def resize(self, n: int) -> None:
        """Serve a population of ``n`` agents from the next draw on."""
        if n < 2:
            raise ConfigurationError("the population model requires at least two agents")
        self.n = n
        self._others = n - 1
        self._total = n * (n - 1)

    @property
    def total(self) -> int:
        return self._total

    def weights(self) -> Dict[Hashable, int]:
        n = self.n
        return {(i, j): 1 for i in range(n) for j in range(n) if i != j}

    def __len__(self) -> int:
        return self._total

    def stats(self) -> Dict[str, Any]:
        return {"strategy": self.strategy, "draws": self.draws}

    def update(self, key: Hashable, weight: int) -> None:
        raise ConfigurationError("agent-pair weights are fixed at 1; resize the population")

    def rebuild(self, weights: Dict[Hashable, int]) -> None:
        raise ConfigurationError("agent-pair weights are fixed at 1; resize the population")

    def sample(self, rng: random.Random) -> Hashable:
        self.draws += 1
        initiator, responder = divmod(int(rng.random() * self._total), self._others)
        if responder >= initiator:
            responder += 1
        return initiator, responder
