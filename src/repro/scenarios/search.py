"""Adversarial scenario search: locate a protocol's robustness frontier.

A chaos scenario *describes* one disturbance; this module *searches* the
disturbance space for the boundary between survival and failure — the
largest perturbation a protocol provably survives and the smallest that
breaks its guarantee, in the spirit of chaos-engineering recommenders.

A :class:`SearchSpec` (JSON round-trip, like
:class:`~repro.scenarios.spec.ScenarioSpec`) declares:

* a **base scenario** that must expand to exactly one cell (one population
  size, one backend, no parameter grid) — the probe template;
* one or more **dimensions** — numeric fields of the scenario's events to
  mutate (churn fraction, process rate, event timing, campaign cadence,
  partition block count), each with a ``[low, high]`` box.  ``low`` is the
  *mild* end of every dimension by convention;
* a **guarantee** the protocol must uphold at each probe point —
  reconvergence within the scenario's budget, post-disturbance
  ``accuracy_fraction >= threshold``, or end-to-end conservation of a
  tracked invariant;
* a **strategy**: deterministic ``bisect`` over one dimension, or a small
  (mu + lambda) ``evolve`` loop for multi-dimensional campaigns that hunts
  the mildest breaking point.

Every probe's scenario seeds derive from the search's root seed and the
probe's *values* (not its visit order), so a probe replays bit-identically
in isolation — :func:`probe_scenario` rebuilds the exact one-cell scenario
for any history entry of a ``FRONTIER_<name>.json`` artifact.

The boundary located is the *empirical* frontier for the derived seeds: each
probe point is a deterministic function of the spec, so re-running the
search reproduces the identical frontier, while a different ``base_seed``
samples a fresh set of trajectories near the (stochastic) true transition.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.errors import ConfigurationError, ExperimentError
from ..engine.rng import SeedLike, derive_seed, make_rng
from ..experiments.runner import PoolExecutor, Progress
from ..obs.profile import profile_from_cells
from .metrics import resolve_invariant
from .runner import execute_scenario_cell, scenario_cell_payload
from .spec import ScenarioSpec

__all__ = [
    "DIMENSION_FIELDS",
    "GUARANTEE_KINDS",
    "SEARCH_STRATEGIES",
    "DimensionSpec",
    "GuaranteeSpec",
    "SearchSpec",
    "FrontierRunner",
    "probe_scenario",
    "probe_base_seed",
]

#: Event fields a search may mutate.  ``at_factor`` / ``every_factor``
#: scale the event's time policies (the paper-scale schedule knobs);
#: ``count`` and ``blocks`` are integers and get rounded per probe.
DIMENSION_FIELDS = ("fraction", "rate", "count", "at_factor", "every_factor", "blocks")

_INTEGER_FIELDS = ("count", "blocks")

#: Guarantee predicates a probe run must satisfy to count as survived.
GUARANTEE_KINDS = ("recovered", "accuracy", "invariant")

SEARCH_STRATEGIES = ("bisect", "evolve")


@dataclass
class DimensionSpec:
    """One mutated coordinate of the disturbance space.

    Attributes:
        event: Index of the mutated event in the scenario's timeline.
        dimension: Which numeric field of that event to mutate — one of
            :data:`DIMENSION_FIELDS`.
        low: Mild end of the search box (the perturbation closest to "no
            disturbance").
        high: Severe end of the search box.
    """

    event: int
    dimension: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.dimension not in DIMENSION_FIELDS:
            raise ConfigurationError(
                f"unknown search dimension {self.dimension!r}; expected one "
                f"of {DIMENSION_FIELDS}"
            )
        self.low = float(self.low)
        self.high = float(self.high)
        if not self.low < self.high:
            raise ConfigurationError(
                f"search dimension {self.dimension!r} needs low < high "
                f"(got [{self.low}, {self.high}])"
            )
        if self.dimension in _INTEGER_FIELDS and (
            self.low != int(self.low) or self.high != int(self.high)
        ):
            raise ConfigurationError(
                f"integer search dimension {self.dimension!r} needs integral "
                f"bounds"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DimensionSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("each search dimension must be a JSON object")
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown search-dimension fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(f"invalid search dimension: {error}") from None


@dataclass
class GuaranteeSpec:
    """The property a probe run must uphold to count as *survived*.

    Attributes:
        kind: One of :data:`GUARANTEE_KINDS` —

            * ``recovered``: the run reconverged within the scenario's
              interaction budget (the engine's final ``converged`` flag);
            * ``accuracy``: the post-disturbance output accuracy against the
              new true ``n`` reached at least ``threshold``;
            * ``invariant``: the named tracked invariant holds the same
              value at the run's start and end (end-to-end conservation).
        threshold: Minimum ``accuracy_fraction`` for ``accuracy``.
        invariant: Invariant name for ``invariant`` (must be tracked by the
            base scenario).
        min_rate: Fraction of a probe's seeded runs that must survive for
            the probe point itself to count as surviving (1.0 = all runs).
    """

    kind: str = "recovered"
    threshold: float = 1.0
    invariant: str = ""
    min_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in GUARANTEE_KINDS:
            raise ConfigurationError(
                f"unknown guarantee kind {self.kind!r}; expected one of "
                f"{GUARANTEE_KINDS}"
            )
        if self.kind == "accuracy" and not 0 < self.threshold <= 1:
            raise ConfigurationError("accuracy guarantee needs 0 < threshold <= 1")
        if self.kind == "invariant":
            if not self.invariant:
                raise ConfigurationError("invariant guarantee needs invariant=")
            resolve_invariant(self.invariant)
        if not 0 < self.min_rate <= 1:
            raise ConfigurationError("guarantee min_rate must lie in (0, 1]")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GuaranteeSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("the search guarantee must be a JSON object")
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown guarantee fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(f"invalid guarantee: {error}") from None


@dataclass
class SearchSpec:
    """A declarative robustness-frontier search.

    Attributes:
        name: Search name; determines the ``FRONTIER_<name>.json`` artifact.
        scenario: The one-cell base scenario every probe mutates.
        dimensions: Mutated coordinates (exactly one for ``bisect``).
        guarantee: Survival predicate evaluated on every probe run.
        strategy: ``bisect`` (deterministic interval halving; needs a
            frontier *crossing* between the box ends) or ``evolve``
            ((mu + lambda) hunt for the mildest breaking point).
        seeds_per_probe: Seeded repetitions per probe point.
        base_seed: Root seed; every probe's scenario seeds derive from it
            and the probe's values.
        tolerance: ``bisect`` stops once the bracketing interval is at most
            this wide.
        max_probes: Hard cap on distinct probe points (repeat visits hit
            the probe cache and are free).
        population: mu — survivors kept per ``evolve`` generation.
        offspring: lambda — mutants generated per ``evolve`` generation.
        generations: ``evolve`` generation count.
        mutation_scale: Gaussian mutation sigma as a fraction of each
            dimension's box width.
        probe_timeout_s: Wall-time budget per probe cell; also bounds the
            pool wait so a crashed worker is detected and retried instead of
            hanging the search.
        description: Free-form text carried into the artifact.
    """

    name: str
    scenario: ScenarioSpec
    dimensions: List[DimensionSpec]
    guarantee: GuaranteeSpec = field(default_factory=GuaranteeSpec)
    strategy: str = "bisect"
    seeds_per_probe: int = 3
    base_seed: SeedLike = 0
    tolerance: float = 0.02
    max_probes: int = 32
    population: int = 4
    offspring: int = 8
    generations: int = 6
    mutation_scale: float = 0.25
    probe_timeout_s: Optional[float] = 300.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a search needs a name")
        if not isinstance(self.scenario, ScenarioSpec):
            self.scenario = ScenarioSpec.from_dict(self.scenario)
        self.dimensions = [
            dim if isinstance(dim, DimensionSpec) else DimensionSpec.from_dict(dim)
            for dim in self.dimensions
        ]
        if not isinstance(self.guarantee, GuaranteeSpec):
            self.guarantee = GuaranteeSpec.from_dict(self.guarantee)
        if self.strategy not in SEARCH_STRATEGIES:
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}; expected one of "
                f"{SEARCH_STRATEGIES}"
            )
        if not self.dimensions:
            raise ConfigurationError("a search needs at least one dimension")
        if self.strategy == "bisect" and len(self.dimensions) != 1:
            raise ConfigurationError(
                "bisect searches exactly one dimension; use strategy='evolve' "
                "for multi-dimensional campaigns"
            )
        if len(self.scenario.cells()) != 1:
            raise ConfigurationError(
                "a search's base scenario must expand to exactly one cell "
                "(one population size, one backend, no param_grid) — probes "
                "mutate that single cell"
            )
        if self.seeds_per_probe < 1:
            raise ConfigurationError("seeds_per_probe must be at least 1")
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.max_probes < 3:
            raise ConfigurationError(
                "max_probes must be at least 3 (two endpoints plus one split)"
            )
        if self.strategy == "evolve":
            if self.population < 1 or self.offspring < 1 or self.generations < 1:
                raise ConfigurationError(
                    "evolve needs population, offspring, and generations >= 1"
                )
            if not 0 < self.mutation_scale <= 1:
                raise ConfigurationError("mutation_scale must lie in (0, 1]")
        if self.probe_timeout_s is not None and self.probe_timeout_s <= 0:
            raise ConfigurationError("probe_timeout_s must be positive")
        if (
            self.guarantee.kind == "invariant"
            and self.guarantee.invariant not in self.scenario.invariants
        ):
            raise ConfigurationError(
                f"the guarantee's invariant {self.guarantee.invariant!r} is "
                f"not tracked by the base scenario; add it to "
                f"scenario.invariants"
            )
        for dim in self.dimensions:
            self._validate_dimension(dim)
        # Both box ends must produce a *valid* scenario, so a search never
        # discovers a malformed probe mid-run.
        probe_scenario(self, [dim.low for dim in self.dimensions])
        probe_scenario(self, [dim.high for dim in self.dimensions])

    def _validate_dimension(self, dim: DimensionSpec) -> None:
        events = self.scenario.events
        if not 0 <= dim.event < len(events):
            raise ConfigurationError(
                f"search dimension references event {dim.event}, but the "
                f"scenario has {len(events)} event(s)"
            )
        event = events[dim.event]
        if dim.dimension == "fraction":
            if not isinstance(event.fraction, (int, float)):
                raise ConfigurationError(
                    f"event {dim.event} ({event.kind!r}) has no numeric "
                    f"fraction to mutate"
                )
        elif dim.dimension == "rate":
            if event.rate is None:
                raise ConfigurationError(
                    f"event {dim.event} ({event.kind!r}) is not a churn "
                    f"process; give it rate= and window= to search its rate"
                )
        elif dim.dimension == "count":
            if event.count is None:
                raise ConfigurationError(
                    f"event {dim.event} ({event.kind!r}) has no count to mutate"
                )
        elif dim.dimension == "at_factor":
            if event.at is None:
                raise ConfigurationError(
                    f"event {dim.event} ({event.kind!r}) uses at_interactions; "
                    f"at_factor needs an at= time policy"
                )
        elif dim.dimension == "every_factor":
            if event.every is None:
                raise ConfigurationError(
                    f"event {dim.event} ({event.kind!r}) is not periodic; "
                    f"every_factor needs every="
                )
        elif dim.dimension == "blocks":
            if event.kind != "partition":
                raise ConfigurationError(
                    f"blocks only applies to partition events, not "
                    f"{event.kind!r}"
                )

    # ------------------------------------------------------------------ JSON
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("a search spec must be a JSON object")
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown search-spec fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(f"invalid search spec: {error}") from None

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid search-spec JSON: {error}") from None
        return cls.from_dict(data)


# --------------------------------------------------------------------------
# Probe construction
# --------------------------------------------------------------------------


def _canonical_values(values: Sequence[float]) -> str:
    """A stable textual key for a probe point (used for seeds and caching)."""
    return repr(tuple(float(value) for value in values))


def probe_base_seed(spec: SearchSpec, values: Sequence[float]) -> int:
    """The probe's scenario root seed, derived from its *values*.

    Seeding by value (not by visit order) makes probes path-independent:
    any probe in a frontier artifact replays bit-identically on its own,
    regardless of the search trajectory that reached it.
    """
    return derive_seed(
        spec.base_seed, "frontier", spec.name, _canonical_values(values)
    )


def probe_scenario(spec: SearchSpec, values: Sequence[float]) -> ScenarioSpec:
    """The concrete one-cell scenario for one probe point.

    This is also the replay entry point: feed it the ``values`` recorded in
    a frontier artifact's history and run the returned scenario (e.g. via
    ``repro-chaos --spec``) to reproduce that probe exactly.
    """
    if len(values) != len(spec.dimensions):
        raise ConfigurationError(
            f"probe has {len(values)} values for {len(spec.dimensions)} "
            f"dimension(s)"
        )
    base = spec.scenario.to_dict()
    for dim, value in zip(spec.dimensions, values):
        event = base["events"][dim.event]
        if dim.dimension == "at_factor":
            event["at"] = {**event["at"], "factor": float(value)}
        elif dim.dimension == "every_factor":
            event["every"] = {**event["every"], "factor": float(value)}
        elif dim.dimension in _INTEGER_FIELDS:
            event[dim.dimension] = int(round(value))
        else:
            event[dim.dimension] = float(value)
    base["name"] = f"{spec.name}-probe"
    base["seeds_per_cell"] = spec.seeds_per_probe
    base["base_seed"] = probe_base_seed(spec, values)
    if spec.probe_timeout_s is not None:
        base["cell_timeout_s"] = spec.probe_timeout_s
    return ScenarioSpec.from_dict(base)


# --------------------------------------------------------------------------
# Guarantee evaluation
# --------------------------------------------------------------------------


def _run_survives(guarantee: GuaranteeSpec, run: Dict[str, Any]) -> bool:
    if guarantee.kind == "recovered":
        return bool(run.get("converged"))
    if guarantee.kind == "accuracy":
        accuracy = run.get("post_accuracy")
        return accuracy is not None and accuracy >= guarantee.threshold
    # invariant: the tracked series must end where it started.
    records = run.get("invariants") or []
    values = [
        entry["values"][guarantee.invariant]
        for entry in records
        if guarantee.invariant in (entry.get("values") or {})
    ]
    if len(values) < 2:
        return False
    return values[0] == values[-1]


def _trim_run(guarantee: GuaranteeSpec, run: Dict[str, Any]) -> Dict[str, Any]:
    """The per-run evidence embedded in the frontier history (kept small)."""
    return {
        "seed": run.get("seed"),
        "converged": run.get("converged"),
        "post_accuracy": run.get("post_accuracy"),
        "stopped_reason": run.get("stopped_reason"),
        "interactions": run.get("interactions"),
        "survived": _run_survives(guarantee, run),
    }


# --------------------------------------------------------------------------
# The search driver
# --------------------------------------------------------------------------


class FrontierRunner:
    """Execute a :class:`SearchSpec` and record its probe history.

    Probes are scheduled as ordinary scenario cells on the shared
    :class:`~repro.experiments.runner.PoolExecutor` (the same spawn-safe
    machinery the sweep and scenario runners use), with per-probe
    retry-on-worker-crash and wall-time budgets — a pathological probe
    fails loudly instead of hanging the search.

    A probe cell that reports an *error* (protocol crash, budget-policy
    explosion, wall-time overrun) aborts the search with
    :class:`~repro.engine.errors.ExperimentError`: errored probes carry no
    survival information, and silently skipping one would corrupt the
    frontier.

    Args:
        spec: The search to run.
        workers: Worker process count (``None``: all cores; below 2 runs
            probes serially in-process).
        progress: Optional line-oriented progress callback.
        executor: Test seam — the cell executor; defaults to
            :func:`~repro.scenarios.runner.execute_scenario_cell`.
        pool_factory: Test seam forwarded to :class:`PoolExecutor`.
        retries: Re-submissions per lost worker task.
        run_cell: Runs one probe payload and returns its cell record, in
            place of a :class:`PoolExecutor` of this runner's own — how the
            job server runs probes as ordinary queued cells.  ``workers``,
            ``executor``, ``pool_factory`` and ``retries`` are then unused.
        should_abort: Optional zero-argument callable polled before every
            probe; returning ``True`` aborts the search with
            :class:`~repro.engine.errors.ExperimentError` (the server's
            job-cancellation hook).
    """

    def __init__(
        self,
        spec: SearchSpec,
        workers: Optional[int] = None,
        progress: Progress = None,
        executor: Callable[[Dict[str, Any]], Dict[str, Any]] = execute_scenario_cell,
        pool_factory: Optional[Callable[[int], Any]] = None,
        retries: int = 1,
        run_cell: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.spec = spec
        self.progress = progress
        self.history: List[Dict[str, Any]] = []
        self._cache: Dict[str, Dict[str, Any]] = {}
        self._should_abort = should_abort
        self._pool: Optional[PoolExecutor] = None
        if run_cell is None:
            self._pool = PoolExecutor(
                executor,
                workers=workers,
                retries=retries,
                progress=progress,
                pool_factory=pool_factory,
            )
            run_cell = self._run_on_pool
        self._run_cell = run_cell
        self.workers = self._pool.workers if self._pool is not None else workers

    def _report(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    # ----------------------------------------------------------------- probes
    def run_probe(self, values: Sequence[float]) -> Dict[str, Any]:
        """Run (or recall) one probe point; returns its history entry."""
        key = _canonical_values(values)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._should_abort is not None and self._should_abort():
            raise ExperimentError(f"search {self.spec.name!r} aborted")
        if len(self._cache) >= self.spec.max_probes:
            raise ExperimentError(
                f"search {self.spec.name!r} exceeded max_probes="
                f"{self.spec.max_probes}"
            )
        scenario = probe_scenario(self.spec, values)
        cell = scenario.cells()[0]
        payload = scenario_cell_payload(scenario.to_dict(), cell)
        started = time.perf_counter()
        record = self._run_cell(payload)
        if record.get("error"):
            raise ExperimentError(
                f"probe {key} of search {self.spec.name!r} failed: "
                f"{str(record['error']).strip().splitlines()[-1]}"
            )
        runs = record.get("runs") or []
        survived = sum(1 for run in runs if _run_survives(self.spec.guarantee, run))
        broken = len(runs) - survived
        survives = bool(runs) and survived / len(runs) >= self.spec.guarantee.min_rate
        entry = {
            "probe": len(self._cache),
            "values": [float(value) for value in values],
            "cell_id": cell.cell_id,
            "base_seed": probe_base_seed(self.spec, values),
            "seeds": list(cell.seeds),
            "survived_runs": survived,
            "broken_runs": broken,
            "survives": survives,
            "runs": [_trim_run(self.spec.guarantee, run) for run in runs],
            # The full run records are trimmed out of the history, so the
            # probe keeps its telemetry pre-aggregated into one profile.
            "telemetry": profile_from_cells([record]),
            "wall_time_s": round(time.perf_counter() - started, 3),
        }
        self._cache[key] = entry
        self.history.append(entry)
        self._report(
            f"  probe {entry['probe']:2d} {key}: "
            f"{survived}/{len(runs)} survived -> "
            f"{'SURVIVES' if survives else 'BROKEN'} "
            f"({entry['wall_time_s']:.1f}s)"
        )
        return entry

    # ------------------------------------------------------------- strategies
    def run(self) -> Dict[str, Any]:
        """Run the search; returns the strategy's result summary."""
        try:
            if self.spec.strategy == "bisect":
                return self._bisect()
            return self._evolve()
        finally:
            if self._pool is not None:
                self._pool.close()

    def _run_on_pool(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        timeout = None
        if self.spec.probe_timeout_s is not None:
            # Grace over the in-worker budget so the worker's own timeout
            # record (which preserves completed runs) wins when possible.
            timeout = self.spec.probe_timeout_s + 30.0
        return self._pool.map([payload], timeout_s=timeout)[0]

    def _bisect(self) -> Dict[str, Any]:
        """Deterministic interval halving over the single dimension.

        Both box ends are probed first to *orient* the frontier: a guarantee
        may break at the severe end (the usual case — e.g. an epidemic
        drowning in churn) or at the mild end (e.g. a post-churn recount
        that only fits its leftover budget when the churn removed enough
        agents).  The invariant maintained is that the bracket always has
        one surviving and one broken end; each step halves its width, so the
        recorded widths shrink monotonically to the declared tolerance.
        """
        dim = self.spec.dimensions[0]
        low_probe = self.run_probe([dim.low])
        high_probe = self.run_probe([dim.high])
        if low_probe["survives"] == high_probe["survives"]:
            outcome = "all-survive" if low_probe["survives"] else "all-break"
            self._report(f"no frontier in [{dim.low}, {dim.high}]: {outcome}")
            return {
                "status": "no-frontier",
                "outcome": outcome,
                "orientation": None,
                "critical": None,
                "bracket": [dim.low, dim.high],
                "tolerance": self.spec.tolerance,
                "probes": len(self.history),
            }
        orientation = "increasing" if low_probe["survives"] else "decreasing"
        surviving_end = dim.low if low_probe["survives"] else dim.high
        broken_end = dim.high if low_probe["survives"] else dim.low
        for probe in (low_probe, high_probe):
            probe["bracket_after"] = sorted([surviving_end, broken_end])
        status = "bracketed"
        while abs(broken_end - surviving_end) > self.spec.tolerance:
            if len(self._cache) >= self.spec.max_probes:
                status = "budget-exhausted"
                break
            midpoint = (surviving_end + broken_end) / 2
            probe = self.run_probe([midpoint])
            if probe["survives"]:
                surviving_end = midpoint
            else:
                broken_end = midpoint
            probe["bracket_after"] = sorted([surviving_end, broken_end])
        critical = (surviving_end + broken_end) / 2
        self._report(
            f"frontier {self.spec.name!r}: critical {dim.dimension} ~ "
            f"{critical:.6g} ({orientation}; survives at {surviving_end:.6g}, "
            f"breaks at {broken_end:.6g}; {len(self.history)} probes)"
        )
        return {
            "status": status,
            "orientation": orientation,
            "critical": critical,
            "survived_frontier": surviving_end,
            "broken_frontier": broken_end,
            "bracket": sorted([surviving_end, broken_end]),
            "tolerance": self.spec.tolerance,
            "probes": len(self.history),
        }

    # -------------------------------------------------------------- evolution
    def _severity(self, values: Sequence[float]) -> float:
        """Normalised distance from the mild corner (rms over dimensions)."""
        total = 0.0
        for dim, value in zip(self.spec.dimensions, values):
            span = dim.high - dim.low
            total += ((value - dim.low) / span) ** 2
        return math.sqrt(total / len(self.spec.dimensions))

    def _fitness(self, entry: Dict[str, Any]) -> float:
        """Lower is better: mildest breaking point wins.

        Broken probes score their severity in ``[0, 1]``; surviving probes
        score ``2 - severity`` in ``[1, 2]`` — always worse than any broken
        probe, but severe survivors (closest to flipping) outrank mild ones,
        which keeps selection pressure pointing at the frontier even before
        the first break is found.
        """
        severity = self._severity(entry["values"])
        return severity if not entry["survives"] else 2.0 - severity

    def _evolve(self) -> Dict[str, Any]:
        """(mu + lambda) hunt for the mildest guarantee-breaking point."""
        spec = self.spec
        rng = make_rng(spec.base_seed, "frontier-evolve", spec.name)
        dims = spec.dimensions

        def clamp(value: float, dim: DimensionSpec) -> float:
            return min(dim.high, max(dim.low, value))

        seeds: List[List[float]] = [
            [dim.low for dim in dims],
            [dim.high for dim in dims],
        ]
        while len(seeds) < spec.population and len(seeds) < spec.max_probes:
            seeds.append(
                [dim.low + rng.random() * (dim.high - dim.low) for dim in dims]
            )
        population = [self.run_probe(point) for point in seeds]
        generations_run = 0
        exhausted = False
        for _generation in range(spec.generations):
            offspring: List[Dict[str, Any]] = []
            for _child in range(spec.offspring):
                if len(self._cache) >= spec.max_probes:
                    exhausted = True
                    break
                parent = population[rng.randrange(len(population))]
                child = [
                    clamp(
                        value
                        + rng.gauss(0.0, spec.mutation_scale * (dim.high - dim.low)),
                        dim,
                    )
                    for dim, value in zip(dims, parent["values"])
                ]
                offspring.append(self.run_probe(child))
            generations_run += 1
            merged = {id(entry): entry for entry in population + offspring}
            population = sorted(merged.values(), key=self._fitness)[
                : spec.population
            ]
            if exhausted:
                break
        broken = [entry for entry in self.history if not entry["survives"]]
        best = min(broken, key=lambda entry: self._severity(entry["values"]), default=None)
        survivors = [entry for entry in self.history if entry["survives"]]
        hardiest = max(
            survivors, key=lambda entry: self._severity(entry["values"]), default=None
        )
        status = "frontier-point" if best is not None else "no-frontier"
        if best is not None:
            self._report(
                f"frontier {spec.name!r}: mildest break at "
                f"{best['values']} (severity {self._severity(best['values']):.3f}, "
                f"{len(self.history)} probes)"
            )
        else:
            self._report(
                f"no break found in {len(self.history)} probes "
                f"(guarantee holds across the searched box)"
            )
        return {
            "status": status,
            "critical": best["values"] if best else None,
            "critical_severity": self._severity(best["values"]) if best else None,
            "survived_frontier": hardiest["values"] if hardiest else None,
            "generations": generations_run,
            "probes": len(self.history),
            "tolerance": spec.tolerance,
        }
