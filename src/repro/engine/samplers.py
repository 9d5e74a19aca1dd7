"""The samplers behind the batch backend's two draw paths.

In its *pruning* regime the batch backend draws the next configuration-
changing interaction from the table of active ordered pair types, weighted
by the number of agent pairs realising each.  :class:`FenwickSampler` serves
that table below the pair kernel's width — a Fenwick (binary indexed) tree
over the weights with O(log P) point updates and O(log P) inverse-CDF draws
and no rebuild ever, which wins on churning tables such as
``backup-exact``'s.  The *dense* regime keeps one id per agent and draws the
two participants' indices from :class:`AgentPairSampler`, the implicit
unit-weight table of ordered pairs of distinct agents, in O(1).  Its fused
event loop calls :meth:`AgentPairSampler.sample` once per interaction, as
a bound local, so the draw keeps one definition and ``draws`` counts
interactions.

Draw-path determinism
---------------------

A draw obeys one **canonical draw contract**: it consumes exactly one
``rng.random()`` variate ``u`` and returns the key whose cumulative weight
interval (taken in the sampler's slot order, the first-insertion order of
its keys) contains ``u * total``.  Any structure evaluating the same inverse
CDF maps the same random stream to the identical key sequence while the
weights stay static; the test suite keeps a linear-scan implementation of
the :class:`WeightedSampler` interface as the differential oracle.

Integer weights up to ``2**53`` keep every comparison in the draw path exact
(see the float-exactness note on :class:`FenwickSampler`), so the
determinism guarantee is bit-for-bit, not approximate.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, Hashable, List, Optional

from .errors import ConfigurationError

__all__ = ["WeightedSampler", "FenwickSampler", "AgentPairSampler"]


def _validate_weight(weight: int) -> None:
    if weight < 0:
        raise ConfigurationError("sampler weights must be non-negative")


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


class FenwickSampler(WeightedSampler):
    """Fenwick-tree (binary indexed) weighted sampler.

    Weights live at the leaves of an implicit prefix-sum tree: a point
    update costs O(log P), and a draw walks the tree top-down to locate the
    inverse-CDF position in O(log P) — no rebuild ever, which is what wins
    on churning wide tables.

    Keys keep their slot for life (a key whose weight returns to 0 and back
    reuses its slot), so the canonical slot order is the first-insertion
    order; when more than half the slots are dead the structure compacts
    itself with one O(P) rebuild.

    Float-exactness note: a draw computes ``target = u * total`` once and
    then subtracts integer node sums while descending.  As long as
    ``total < 2**53`` every such difference is exact in IEEE-754 double
    precision (both operands are multiples of the smaller operand's ulp and
    the result shrinks), so the descent lands on *exactly* the slot the
    canonical linear scan would pick for the same ``u`` — the determinism
    contract is bit-for-bit.
    """

    strategy = "fenwick"

    #: Compact (rebuild dropping dead slots) when over half the slots are
    #: dead and the table is at least this large.
    COMPACT_MIN_SIZE = 64

    def __init__(self, weights: Optional[Dict[Hashable, int]] = None) -> None:
        super().__init__()
        self._keys: List[Hashable] = []
        # Key -> slot, built on the first update after a rebuild: the
        # batch backend rebuilds narrow tables on every event and only ever
        # samples them.
        self._slots: Optional[Dict[Hashable, int]] = {}
        self._leaf: List[int] = []
        self._tree: List[int] = [0]  # 1-based; _tree[0] unused
        self._total = 0
        self._dead = 0
        if weights:
            self.rebuild(weights)
            self.rebuilds = 0  # construction is not churn

    @property
    def total(self) -> int:
        return self._total

    def weights(self) -> Dict[Hashable, int]:
        return {key: weight for key, weight in zip(self._keys, self._leaf) if weight}

    def stats(self) -> Dict[str, Any]:
        record = super().stats()
        record.update(slots=len(self._keys), dead_slots=self._dead)
        return record

    def rebuild(self, weights: Dict[Hashable, int]) -> None:
        self.rebuilds += 1
        keys = list(weights)
        leaf = list(weights.values())
        if leaf and min(leaf) <= 0:  # drop zero weights (rare: callers pre-clean)
            for weight in leaf:
                _validate_weight(weight)
            keys = [key for key, weight in zip(keys, leaf) if weight]
            leaf = [weight for weight in leaf if weight]
        self._keys = keys
        self._slots = None
        self._leaf = leaf
        size = len(leaf)
        # Linear-time construction: each node accumulates into its parent.
        tree = [0, *leaf]
        for index in range(1, size):
            parent = index + (index & -index)
            if parent <= size:
                tree[parent] += tree[index]
        self._tree = tree
        self._total = sum(leaf)
        self._dead = 0

    # --------------------------------------------------------------- helpers
    def _prefix(self, count: int) -> int:
        """Sum of the first ``count`` slots' weights."""
        tree = self._tree
        acc = 0
        while count > 0:
            acc += tree[count]
            count -= count & -count
        return acc

    def _add(self, position: int, delta: int) -> None:
        """Add ``delta`` at 1-based ``position``."""
        tree = self._tree
        size = len(tree)
        while position < size:
            tree[position] += delta
            position += position & -position

    def _append(self, key: Hashable, weight: int) -> None:
        position = len(self._keys) + 1
        low = position & -position
        # tree[position] covers slots (position - low, position]; seed it with
        # the already-present part of that range so the invariant holds.
        base = self._prefix(position - 1) - self._prefix(position - low)
        self._keys.append(key)
        self._slots[key] = position - 1
        self._leaf.append(weight)
        self._tree.append(base + weight)
        self._total += weight

    def update(self, key: Hashable, weight: int) -> None:
        _validate_weight(weight)
        self.updates += 1
        slots = self._slots
        if slots is None:
            slots = self._slots = dict(zip(self._keys, range(len(self._keys))))
        slot = slots.get(key)
        if slot is None:
            if weight:
                self._append(key, weight)
            return
        old = self._leaf[slot]
        if weight == old:
            return
        self._leaf[slot] = weight
        self._add(slot + 1, weight - old)
        self._total += weight - old
        if old and not weight:
            self._dead += 1
        elif weight and not old:
            self._dead -= 1
        size = len(self._keys)
        if size >= self.COMPACT_MIN_SIZE and self._dead * 2 > size:
            live = self.weights()
            self.rebuild(live)
            self.rebuilds -= 1  # compaction is maintenance, not API churn

    def sample(self, rng: random.Random) -> Hashable:
        self._require_positive_total()
        self.draws += 1
        target = rng.random() * self._total
        tree = self._tree
        size = len(tree) - 1
        position = 0
        bit = 1 << (size.bit_length() - 1) if size else 0
        while bit:
            probe = position + bit
            if probe <= size and tree[probe] <= target:
                target -= tree[probe]
                position = probe
            bit >>= 1
        # Float corner: u * total rounding up to total walks off the end;
        # clamp back to the last live slot (the scan lands there too).
        if position >= size:
            position = size - 1
        leaf = self._leaf
        while position > 0 and not leaf[position]:
            position -= 1
        return self._keys[position]


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
