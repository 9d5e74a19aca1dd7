"""Declarative chaos-scenario specifications with JSON round-tripping.

A :class:`ScenarioSpec` composes a registered protocol with a *timeline* of
disturbance events — agent churn (join/leave/replace schedules), fault
campaigns (repeated state corruption) and population restarts — and
measures how the protocol recovers.  Like
:class:`~repro.experiments.spec.SweepSpec` it references no live objects: a
spec serialises to JSON, ships to spawned workers, embeds into
``SCENARIO_*.json`` artifacts, and re-runs bit-identically.

Event *times* are expressed as :class:`~repro.experiments.spec.BudgetPolicy`
terms (``factor * n^a * log2(n)^b`` interactions), so a schedule like
"remove 10% of the agents at ``t = 5 n log n``" stays meaningful across the
population-size grid; absolute interaction counts are available as an
override.  Event *magnitudes* are fractions of the population at the moment
the event fires (churn compounds), or absolute agent counts — and a fraction
may name a ``param_grid`` parameter, which is what plugs churn severity into
the sweep machinery (one grid cell per churn fraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..engine.backends import BACKEND_NAMES
from ..engine.errors import ConfigurationError
from ..engine.rng import SeedLike, derive_seed
from ..experiments.spec import BudgetPolicy, GridSpec, policy_from
from .faults import resolve_fault

__all__ = ["EVENT_KINDS", "EventSpec", "ScenarioCell", "ScenarioSpec"]

#: Supported timeline-event kinds.
EVENT_KINDS = (
    "join",      # fresh agents join (initial state, new ids)
    "leave",     # uniformly random agents leave
    "replace",   # crash-and-rejoin churn: leave + join, n unchanged
    "restart",   # every agent resets to the initial configuration at current n
    "corrupt",   # a fault model corrupts random victims (see scenarios.faults)
)

#: Event kinds that need a magnitude (fraction or count).
_SIZED_KINDS = ("join", "leave", "replace", "corrupt")


@dataclass
class EventSpec:
    """One scheduled disturbance in a scenario timeline.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        at: Fire time as a ``factor * n^a * log2(n)^b`` interaction count
            (resolved against the cell's population size); alternatively
            ``at_interactions`` gives an absolute time.  Exactly one of the
            two must be set.
        at_interactions: Absolute fire time in interactions.
        fraction: Magnitude of sized events as a fraction of the population
            at fire time, or the *name* of a cell parameter holding that
            fraction (the ``param_grid`` hook).
        count: Absolute magnitude override (agents).
        restart: For churn kinds — also restart the whole population right
            after the churn, modelling detected membership change: the
            protocols re-run at the new true ``n``, which is what makes the
            counting stack *recount*.
        fault: Fault-model name for ``corrupt`` events (see
            :mod:`repro.scenarios.faults`).
        repeat: Number of occurrences (a periodic campaign when > 1).
        every: Period between occurrences, as a time policy (required when
            ``repeat > 1``).
        label: Human-readable tag carried into records; defaults to the kind
            (suffixed with the occurrence index for campaigns).
    """

    kind: str
    at: Optional[BudgetPolicy] = None
    at_interactions: Optional[int] = None
    fraction: Optional[Union[float, str]] = None
    count: Optional[int] = None
    restart: bool = False
    fault: str = "reset"
    repeat: int = 1
    every: Optional[BudgetPolicy] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.kind == "corrupt":
            resolve_fault(self.fault)  # a typo'd fault must fail at spec time
        if self.at is not None:
            self.at = policy_from(self.at, "event time policy")
        if self.every is not None:
            self.every = policy_from(self.every, "event period policy")
        if (self.at is None) == (self.at_interactions is None):
            raise ConfigurationError(
                f"event {self.kind!r} needs exactly one of at / at_interactions"
            )
        if self.at_interactions is not None and self.at_interactions < 0:
            raise ConfigurationError("at_interactions must be non-negative")
        if self.kind in _SIZED_KINDS:
            if (self.fraction is None) == (self.count is None):
                raise ConfigurationError(
                    f"event {self.kind!r} needs exactly one of fraction / count"
                )
            if isinstance(self.fraction, (int, float)) and not 0 < float(self.fraction) <= 1:
                raise ConfigurationError("event fraction must lie in (0, 1]")
            if self.count is not None and self.count < 1:
                raise ConfigurationError("event count must be at least 1")
        if self.restart and self.kind not in ("join", "leave", "replace"):
            raise ConfigurationError("restart only applies to churn events")
        if self.repeat < 1:
            raise ConfigurationError("repeat must be at least 1")
        if self.repeat > 1 and self.every is None:
            raise ConfigurationError("periodic events (repeat > 1) need every=")
        if not self.label:
            self.label = self.kind

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EventSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("each event must be a JSON object")
        payload = dict(data)
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown event fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(f"invalid event: {error}") from None


@dataclass(frozen=True)
class ScenarioCell:
    """One scenario grid cell: a (parameters, n, backend) combination."""

    cell_id: str
    n: int
    backend: str
    params: Dict[str, Any]
    seeds: Tuple[int, ...]


def _param_suffix(params: Dict[str, Any]) -> str:
    if not params:
        return ""
    parts = [f"{key}={params[key]}" for key in sorted(params)]
    return "-" + "-".join(parts)


@dataclass
class ScenarioSpec(GridSpec):
    """A declarative chaos scenario.

    Attributes:
        name: Scenario name; determines the ``SCENARIO_<name>.json`` artifact.
        protocol: Registry name (:mod:`repro.experiments.registry`).
        ns: Population sizes of the grid (the *initial* sizes; churn moves
            them mid-run).
        events: The disturbance timeline.
        seeds_per_cell: Seeded repetitions per cell.
        base_seed: Root seed; every cell seed is derived from it.
        backends: Backends to run each cell on — recovery claims are checked
            on ``["agent", "batch"]`` cells side by side.
        params: Protocol parameters shared by every cell.
        param_grid: Per-parameter value lists; the grid is the cartesian
            product with ``ns`` and ``backends``.  Parameters may be consumed
            by the protocol builder *or* referenced by name from an event's
            ``fraction`` (churn-severity grids).
        budget: Interaction-budget policy (the whole timeline must fit).
        check_interval_factor: Convergence-check cadence in units of ``n``.
        max_checks: Bound on convergence checks per run (cadence stretch).
        confirm_checks: Consecutive satisfied checks to stop early (only
            after the final event).
        invariants: Named invariants measured at every event boundary (see
            :data:`repro.scenarios.metrics.INVARIANTS`), e.g. the token-sum
            conservation of the counting stack through churn.
        cell_timeout_s: Optional per-cell wall-time budget (same contract as
            :attr:`repro.experiments.spec.SweepSpec.cell_timeout_s`).
        description: Free-form text carried into the artifact.
    """

    name: str
    protocol: str
    ns: List[int]
    events: List[EventSpec]
    seeds_per_cell: int = 3
    base_seed: SeedLike = 0
    backends: List[str] = field(default_factory=lambda: ["auto"])
    params: Dict[str, Any] = field(default_factory=dict)
    param_grid: Dict[str, List[Any]] = field(default_factory=dict)
    budget: BudgetPolicy = field(default_factory=BudgetPolicy)
    check_interval_factor: float = 1.0
    max_checks: int = 2000
    confirm_checks: int = 3
    invariants: List[str] = field(default_factory=list)
    cell_timeout_s: Optional[float] = None
    description: str = ""

    _spec_kind = "scenario"

    def __post_init__(self) -> None:
        self._validate_grid()
        self.events = [
            event if isinstance(event, EventSpec) else EventSpec.from_dict(event)
            for event in self.events
        ]
        if not self.events:
            raise ConfigurationError(
                "a scenario needs at least one event (use repro-sweep for "
                "undisturbed grids)"
            )
        if not self.backends:
            raise ConfigurationError("scenario requires at least one backend")
        for backend in self.backends:
            if backend not in BACKEND_NAMES:
                raise ConfigurationError(
                    f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
                )

    # ------------------------------------------------------------------ grid
    def cells(self) -> List[ScenarioCell]:
        """Expand the grid into cells with deterministically derived seeds."""
        expanded: List[ScenarioCell] = []
        for variant in self._param_variants():
            suffix = _param_suffix(
                {key: variant[key] for key in sorted(self.param_grid)}
            )
            for n in self.ns:
                for backend in self.backends:
                    seeds = tuple(
                        derive_seed(
                            self.base_seed,
                            "scenario",
                            self.name,
                            self.protocol,
                            n,
                            backend,
                            repr(sorted(variant.items())),
                            index,
                        )
                        for index in range(self.seeds_per_cell)
                    )
                    expanded.append(
                        ScenarioCell(
                            cell_id=f"{self.protocol}{suffix}-n{n}-{backend}",
                            n=n,
                            backend=backend,
                            params=variant,
                            seeds=seeds,
                        )
                    )
        return expanded
