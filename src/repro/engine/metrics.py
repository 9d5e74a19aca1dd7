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
from typing import Any, Dict, List, Optional, Tuple

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
    tracker keeps the set of values seen per component and projects new
    component values onto the variables when the ranges are read.
    """

    def __init__(self) -> None:
        self._components: List[set] = []
        #: Per component, values added since the ranges were last read.
        self._fresh: List[List[Any]] = []
        #: Index path of each scalar variable -> the values it took.
        self._ranges: Dict[Tuple[int, ...], set] = {}
        self._sizes: Tuple[int, ...] = ()

    def observe(self, key: Any) -> None:
        """Record one observed state key."""
        if not isinstance(key, tuple):
            key = (key,)
        components = self._components
        while len(components) < len(key):
            components.append(set())
            self._fresh.append([])
        for values, fresh, value in zip(components, self._fresh, key):
            if value not in values:
                values.add(value)
                fresh.append(value)

    def _project(self, path: Tuple[int, ...], value: Any) -> None:
        if isinstance(value, tuple):
            for index, item in enumerate(value):
                self._project((*path, index), item)
        else:
            self._ranges.setdefault(path, set()).add(value)

    @property
    def field_range_sizes(self) -> Tuple[int, ...]:
        """Number of distinct values per scalar variable, in index-path order."""
        grown = False
        for index, fresh in enumerate(self._fresh):
            if fresh:
                for value in fresh:
                    self._project((index,), value)
                fresh.clear()
                grown = True
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

    def majority_output(self) -> Optional[Any]:
        """Return the most common output, or ``None`` for an empty histogram."""
        if not self.output_histogram:
            return None
        return self.output_histogram.most_common(1)[0][0]

    def agreement_fraction(self) -> float:
        """Fraction of agents currently reporting the most common output."""
        total = sum(self.output_histogram.values())
        if total == 0:
            return 0.0
        return self.output_histogram.most_common(1)[0][1] / total
