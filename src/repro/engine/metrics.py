"""Metrics collected during simulations.

The paper measures protocols along two axes: the number of interactions until
convergence/stabilisation and the number of *states* used, which it counts
as the product of the ranges its state variables actually reach (w.h.p.),
e.g. ``level = O(log log n)``, ``k = O(log n)``.  :class:`StateSpaceTracker`
measures the empirical analogue of the second axis the same way: the range
of every scalar variable of the state keys observed during a run, and their
product.  It keeps one set of values per key component, so its memory grows
with the distinct values of each component, not with the distinct joint
keys.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Tuple

__all__ = [
    "StateSpaceTracker",
    "InteractionCounter",
    "AggregateInteractionCounter",
    "MetricsSnapshot",
]


class StateSpaceTracker:
    """Track the observed range of every scalar variable of the state keys.

    A key is a tuple of components (any other key is one component), and a
    component may nest tuples in turn.  Flattened, each scalar position —
    the index path through the nested tuples — is one state variable.  The
    tracker adds each component of an observed key to a per-component set
    (one C-level ``set.add`` each) and projects component values onto the
    variables when the ranges are read: the values observed since the last
    read, less the ones already projected.
    """

    def __init__(self) -> None:
        #: Per component, the values observed since the ranges were last
        #: read (values projected before may be among them).
        self._observed: List[set] = []
        #: Per component, the values already projected onto the variables.
        self._projected: List[set] = []
        #: Index path of each scalar variable -> the values it took.
        self._ranges: Dict[Tuple[int, ...], set] = {}
        self._sizes: Tuple[int, ...] = ()

    @property
    def component_sets(self) -> List[set]:
        """Per component, the set :meth:`observe` adds that component to.

        A hot loop may add the components of a tuple key no wider than this
        list to the sets itself, ``any(map(set.add, sets, key))``, which is
        what :meth:`observe` does without its call; any other key must go
        through :meth:`observe`, which widens the list.  The list is the same
        object for the tracker's life.
        """
        return self._observed

    def observe(self, key: Any) -> None:
        """Record one observed state key."""
        if not isinstance(key, tuple):
            key = (key,)
        observed = self._observed
        while len(observed) < len(key):
            observed.append(set())
            self._projected.append(set())
        any(map(set.add, observed, key))

    def _project(self, path: Tuple[int, ...], values: Iterable[Any]) -> None:
        """Add ``values``, taken at variable position ``path``, to the ranges.

        A scalar lands in ``path``'s own range; the items of tuples are
        projected position by position onto the paths below ``path``.
        """
        scalars = []
        by_length: Dict[int, List[tuple]] = {}
        for value in values:
            if isinstance(value, tuple):
                by_length.setdefault(len(value), []).append(value)
            else:
                scalars.append(value)
        if scalars:
            self._ranges.setdefault(path, set()).update(scalars)
        for index in range(max(by_length, default=0)):
            items: set = set()
            for length, group in by_length.items():
                if length > index:
                    items.update(map(itemgetter(index), group))
            self._project((*path, index), items)

    @property
    def field_range_sizes(self) -> Tuple[int, ...]:
        """Number of distinct values per scalar variable, in index-path order."""
        grown = False
        for index, (fresh, projected) in enumerate(zip(self._observed, self._projected)):
            if not fresh:
                continue
            fresh -= projected
            if fresh:
                self._project((index,), fresh)
                grown = True
            if len(fresh) > len(projected):
                # Merge into the larger set: the two trade places.
                fresh |= projected
                self._projected[index], self._observed[index] = fresh, projected
                projected.clear()
            else:
                projected |= fresh
                fresh.clear()
        if grown:
            ranges = self._ranges
            self._sizes = tuple(len(ranges[path]) for path in sorted(ranges))
        return self._sizes

    @property
    def distinct_states(self) -> int:
        """Product of the variables' range sizes (0 before any observation)."""
        sizes = self.field_range_sizes
        return math.prod(sizes) if sizes else 0

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the tracked state space."""
        return {
            "distinct_states": self.distinct_states,
            "field_range_sizes": list(self.field_range_sizes),
        }


class InteractionCounter:
    """Count interactions globally and per agent.

    Per-agent counts support checks such as "every agent participated in at
    least one interaction", the event underlying the ``Omega(n log n)`` lower
    bound discussed in the introduction.
    """

    def __init__(self, n: int) -> None:
        self.total = 0
        self.per_agent: List[int] = [0] * n
        self.initiated: List[int] = [0] * n

    def record(self, initiator: int, responder: int) -> None:
        """Record one interaction between ``initiator`` and ``responder``."""
        self.total += 1
        self.per_agent[initiator] += 1
        self.per_agent[responder] += 1
        self.initiated[initiator] += 1

    def add_agent(self) -> None:
        """Extend the per-agent arrays for one agent joining the population."""
        self.per_agent.append(0)
        self.initiated.append(0)

    def remove_agent(self, index: int) -> None:
        """Drop agent ``index`` by swap-removal (mirrors the backend's order)."""
        self.per_agent[index] = self.per_agent[-1]
        self.per_agent.pop()
        self.initiated[index] = self.initiated[-1]
        self.initiated.pop()

    @property
    def min_participation(self) -> int:
        """Smallest number of interactions any single agent participated in."""
        return min(self.per_agent) if self.per_agent else 0

    @property
    def agents_never_interacted(self) -> int:
        """Number of agents that have not participated in any interaction."""
        return sum(1 for count in self.per_agent if count == 0)

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary (without the per-agent arrays)."""
        return {
            "total": self.total,
            "min_participation": self.min_participation,
            "agents_never_interacted": self.agents_never_interacted,
        }


class AggregateInteractionCounter:
    """Interaction totals without per-agent attribution.

    The batch backend operates on the configuration histogram, in which agent
    identities do not exist, so per-agent participation cannot be attributed.
    This counter exposes the same summary interface as
    :class:`InteractionCounter` with the per-agent quantities reported as
    zero and flagged as untracked in :meth:`as_dict`.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.total = 0

    @property
    def min_participation(self) -> int:
        """Not tracked at configuration level; always 0."""
        return 0

    @property
    def agents_never_interacted(self) -> int:
        """Not tracked at configuration level; always 0."""
        return 0

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary."""
        return {"total": self.total, "per_agent_tracked": False}


@dataclass
class MetricsSnapshot:
    """A point-in-time snapshot of simulation metrics.

    Attributes:
        interaction: Number of interactions completed when the snapshot was taken.
        output_histogram: Multiset of agent outputs at that time.
        distinct_states: State count observed up to that time (see
            :attr:`StateSpaceTracker.distinct_states`).
    """

    interaction: int
    output_histogram: Counter = field(default_factory=Counter)
    distinct_states: int = 0

    def agreement_fraction(self) -> float:
        """Fraction of agents currently reporting the most common output."""
        total = sum(self.output_histogram.values())
        if total == 0:
            return 0.0
        return self.output_histogram.most_common(1)[0][1] / total
