"""Simulation hooks and timeline events.

Hooks observe the boundaries of a run — start, checkpoints, timeline events
and end — without being part of any protocol; they are used for trace
recording, progress reporting and the scenario invariants.  A
:class:`TimelineEvent` is the one way to change a running population: churn,
restarts and fault injection all stop the chain at an exact interaction and
rewrite the configuration there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from .simulator import Simulator

__all__ = ["Hook", "CallbackHook", "TimelineEvent"]


@dataclass
class TimelineEvent:
    """A scheduled intervention in a running simulation.

    The simulator applies the event once its interaction counter reaches
    ``at``: it stops the chain exactly there (truncating any pending
    geometric skip, which is exact by memorylessness), calls ``apply`` with
    the simulator, and resumes.  Events drive the dynamic-population
    scenarios: churn (``backend.join`` / ``leave`` / ``replace``), restarts,
    fault campaigns, and scheduler reconfiguration are all expressed as
    timeline events.

    Attributes:
        at: Interaction index at which the event fires.  Events scheduled at
            or beyond the interaction budget never fire (they are reported as
            unfired in the run's ``extra["timeline"]``).
        kind: Machine-readable event category (``"join"``, ``"leave"``, …).
        apply: Callable receiving the simulator; performs the intervention
            and returns a JSON-friendly dict of details for the run record.
        label: Human-readable tag carried into records (defaults to *kind*).
    """

    at: int
    kind: str
    apply: Callable[["Simulator"], Dict[str, Any]]
    label: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("timeline events cannot fire before interaction 0")
        if not self.label:
            self.label = self.kind


class Hook:
    """Base class for simulation observers.  All callbacks default to no-ops.

    A hook observes the boundaries of a run: its start, each convergence
    checkpoint, each timeline event and its end.  It never sees single
    interactions, and it is not the place to change the population: a
    change to a running population is a :class:`TimelineEvent`.
    """

    def on_start(self, simulator: "Simulator") -> None:
        """Called once before the first interaction of a run."""

    def on_checkpoint(self, simulator: "Simulator", satisfied: bool) -> None:
        """Called whenever the simulator evaluates its convergence predicate."""

    def on_timeline_event(
        self, simulator: "Simulator", event: "TimelineEvent", record: Dict[str, Any]
    ) -> None:
        """Called after a timeline event was applied to the simulation.

        ``record`` is the JSON-friendly event record (``at``, ``kind``,
        ``label``, ``n_after``, the ``apply`` details) that will land in the
        run's ``extra["timeline"]``; hooks may annotate it in place — the
        scenario subsystem's invariant tracker adds its measurements here.
        """

    def on_end(self, simulator: "Simulator") -> None:
        """Called once when a run finishes (for any reason)."""


class CallbackHook(Hook):
    """Adapter turning plain callables into a :class:`Hook`.

    Any subset of the callbacks may be provided; missing ones are no-ops.
    """

    def __init__(
        self,
        on_start: Optional[Callable[["Simulator"], None]] = None,
        on_checkpoint: Optional[Callable[["Simulator", bool], None]] = None,
        on_end: Optional[Callable[["Simulator"], None]] = None,
        on_timeline_event: Optional[
            Callable[["Simulator", "TimelineEvent", Dict[str, Any]], None]
        ] = None,
    ) -> None:
        self._on_start = on_start
        self._on_checkpoint = on_checkpoint
        self._on_end = on_end
        self._on_timeline_event = on_timeline_event

    def on_start(self, simulator: "Simulator") -> None:
        if self._on_start:
            self._on_start(simulator)

    def on_checkpoint(self, simulator: "Simulator", satisfied: bool) -> None:
        if self._on_checkpoint:
            self._on_checkpoint(simulator, satisfied)

    def on_timeline_event(
        self, simulator: "Simulator", event: TimelineEvent, record: Dict[str, Any]
    ) -> None:
        if self._on_timeline_event:
            self._on_timeline_event(simulator, event, record)

    def on_end(self, simulator: "Simulator") -> None:
        if self._on_end:
            self._on_end(simulator)
