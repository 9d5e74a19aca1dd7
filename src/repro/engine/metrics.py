"""Metrics collected during simulations.

The paper measures protocols along two axes: the number of interactions until
convergence/stabilisation and the number of *states* used (the product of the
variable ranges actually reached, w.h.p.).  :class:`StateSpaceTracker`
measures the empirical analogue of the second axis: the number of distinct
agent states observed during a run, plus per-field value ranges so the
reported figure can be compared with the paper's per-variable bounds (e.g.
``level = O(log log n)``, ``k = O(log n)``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

__all__ = [
    "StateSpaceTracker",
    "InteractionCounter",
    "AggregateInteractionCounter",
    "MetricsSnapshot",
]


class StateSpaceTracker:
    """Track the set of distinct agent-state keys observed in a run.

    Args:
        track_fields: When ``True`` and state keys are tuples, also track the
            set of distinct values per tuple position, which approximates the
            per-variable ranges the paper multiplies to obtain state bounds.
        seen: A container of keys the caller already keeps, every one
            observed (the batch backend passes its intern table).  The
            caller adds each new key to it and reports it with
            :meth:`observe_new`; :meth:`observe` needs the default set.
    """

    def __init__(self, track_fields: bool = True, seen: Optional[Any] = None) -> None:
        self._seen: Any = set() if seen is None else seen
        self._track_fields = track_fields
        self._field_values: List[set] = []

    def observe(self, key: Hashable) -> None:
        """Record one observed state key."""
        if key in self._seen:
            return
        self._seen.add(key)
        self.observe_new(key)

    def observe_new(self, key: Hashable) -> None:
        """Record the field values of a key just added to ``seen``."""
        if self._track_fields and isinstance(key, tuple):
            field_values = self._field_values
            while len(field_values) < len(key):
                field_values.append(set())
            for values, value in zip(field_values, key):
                values.add(value)

    @property
    def distinct_states(self) -> int:
        """Number of distinct state keys observed so far."""
        return len(self._seen)

    @property
    def field_range_sizes(self) -> Tuple[int, ...]:
        """Number of distinct values observed per state-tuple position."""
        return tuple(len(values) for values in self._field_values)

    @property
    def field_range_product(self) -> int:
        """Product of per-field range sizes (the paper's state-count measure)."""
        product = 1
        for values in self._field_values:
            product *= max(1, len(values))
        return product

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the tracked state space."""
        return {
            "distinct_states": self.distinct_states,
            "field_range_sizes": list(self.field_range_sizes),
            "field_range_product": self.field_range_product,
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
        distinct_states: Distinct state keys observed up to that time.
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
