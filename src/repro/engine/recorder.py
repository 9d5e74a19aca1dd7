"""Trace recording hooks.

Recorders snapshot the evolving output distribution of a run so experiments
can report convergence trajectories (e.g. the fraction of agents outputting
the correct count over time) without storing full per-interaction traces.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, List

from .hooks import Hook
from .metrics import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["OutputTraceRecorder", "StateHistogramRecorder"]


class OutputTraceRecorder(Hook):
    """Record an output histogram at the start, every checkpoint and the end.

    Checkpoints follow the simulator's convergence-check cadence
    (``check_interval``), so that cadence sets the trace's resolution.

    Args:
        max_snapshots: Safety cap on stored snapshots.
    """

    def __init__(self, max_snapshots: int = 100_000) -> None:
        self.max_snapshots = max_snapshots
        self.snapshots: List[MetricsSnapshot] = []

    def _snapshot(self, simulator: "Simulator") -> None:
        if len(self.snapshots) >= self.max_snapshots:
            return
        histogram = simulator.output_counts()
        self.snapshots.append(
            MetricsSnapshot(
                interaction=simulator.interactions,
                output_histogram=histogram,
                distinct_states=simulator.state_space.distinct_states,
            )
        )

    def on_start(self, simulator: "Simulator") -> None:
        self._snapshot(simulator)

    def on_checkpoint(self, simulator: "Simulator", satisfied: bool) -> None:
        self._snapshot(simulator)

    def on_end(self, simulator: "Simulator") -> None:
        self._snapshot(simulator)

    def agreement_trajectory(self) -> List[tuple]:
        """Return ``(interaction, agreement_fraction)`` pairs over the run."""
        return [(snap.interaction, snap.agreement_fraction()) for snap in self.snapshots]


class StateHistogramRecorder(Hook):
    """Record the multiset of state keys at the end of a run.

    The final histogram is what the backup-protocol lemmas reason about (e.g.
    Lemma 12's claim that level ``i`` ends up holding exactly ``n_i`` agents,
    where ``n_i`` is the ``i``-th bit of ``n``).
    """

    def __init__(self) -> None:
        self.final_histogram: Counter = Counter()

    def on_end(self, simulator: "Simulator") -> None:
        self.final_histogram = simulator.state_key_counts()
