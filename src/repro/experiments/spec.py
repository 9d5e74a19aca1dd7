"""Declarative sweep specifications with JSON round-tripping.

A :class:`SweepSpec` describes a full experiment grid — protocol, population
sizes, per-protocol parameter variants, seeds per cell, backend, interaction
budget, and convergence-check policy — without referencing any live objects,
so it can be written to disk, shipped to a spawned worker process, embedded
in a ``SWEEP_*.json`` artifact, and re-run bit-identically (per-cell seeds
are derived deterministically from the root seed).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..engine.backends import BACKEND_NAMES
from ..engine.errors import ConfigurationError
from ..engine.rng import SeedLike, derive_seed
from .registry import resolve_protocol

__all__ = ["BudgetPolicy", "GridSpec", "SweepCell", "SweepSpec", "policy_from"]


@dataclass(frozen=True)
class BudgetPolicy:
    """Interaction budget as ``factor * n^n_exponent * log2(n)^log_exponent``.

    The default reproduces :func:`repro.engine.simulator.default_interaction_budget`
    (``64 n log2(n)^2``), which covers the fast counting protocols; the
    quadratic backup protocols of Appendix C use ``n_exponent=2``.
    """

    factor: float = 64.0
    n_exponent: float = 1.0
    log_exponent: float = 2.0

    def budget(self, n: int) -> int:
        """Interaction budget for population size ``n``."""
        if n < 2:
            raise ConfigurationError("population size must be at least 2")
        return int(self.factor * n ** self.n_exponent * max(1.0, math.log2(n)) ** self.log_exponent)


#: Spec fields of earlier releases that only load with their default value.
_REMOVED_KNOBS = ("sampler", "accel")


def policy_from(value: Any, context: str) -> BudgetPolicy:
    """Coerce a :class:`BudgetPolicy` or its JSON dict form, with validation."""
    if isinstance(value, BudgetPolicy):
        return value
    if isinstance(value, dict):
        try:
            return BudgetPolicy(**value)
        except TypeError as error:
            raise ConfigurationError(f"invalid {context}: {error}") from None
    raise ConfigurationError(f"{context} must be a factor/exponent object")


class GridSpec:
    """Shared machinery of the declarative grid specs (sweeps, scenarios).

    Subclasses are dataclasses declaring at least ``name``, ``protocol``,
    ``ns``, ``seeds_per_cell``, ``params``, ``param_grid``, ``budget``,
    ``check_interval_factor``, ``max_checks``, ``confirm_checks`` and
    ``cell_timeout_s``; this base provides the common validation, the
    parameter-grid expansion, the check cadence, and the JSON round-trip —
    one implementation, so the two spec layers cannot drift apart.
    """

    #: Human-readable spec kind used in error messages.
    _spec_kind = "grid"

    def _validate_grid(self) -> None:
        """Validate (and normalise) the fields shared by every grid spec."""
        if not self.name:
            raise ConfigurationError(f"{self._spec_kind} name must be non-empty")
        resolve_protocol(self.protocol)  # fail fast on unknown protocols
        if not self.ns:
            raise ConfigurationError(
                f"{self._spec_kind} requires at least one population size"
            )
        if any(n < 2 for n in self.ns):
            raise ConfigurationError("population sizes must be at least 2")
        if self.seeds_per_cell < 1:
            raise ConfigurationError("seeds_per_cell must be at least 1")
        self.budget = policy_from(self.budget, "budget policy")
        if self.check_interval_factor <= 0:
            raise ConfigurationError("check_interval_factor must be positive")
        if self.max_checks < 1:
            raise ConfigurationError("max_checks must be at least 1")
        if self.confirm_checks < 1:
            raise ConfigurationError("confirm_checks must be at least 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigurationError("cell_timeout_s must be positive")

    # ------------------------------------------------------------------ grid
    def _param_variants(self) -> Iterator[Dict[str, Any]]:
        if not self.param_grid:
            yield dict(self.params)
            return
        keys = sorted(self.param_grid)
        for values in itertools.product(*(self.param_grid[key] for key in keys)):
            variant = dict(self.params)
            variant.update(dict(zip(keys, values)))
            yield variant

    def check_interval(self, n: int) -> int:
        """Convergence-check cadence for population size ``n``.

        ``check_interval_factor`` units of ``n`` (one parallel-time unit
        each), stretched to ``budget / max_checks`` when the budget is large
        so checkpointing overhead stays bounded.
        """
        cadence = max(1, int(self.check_interval_factor * n))
        stretched = self.budget.budget(n) // self.max_checks
        return max(cadence, stretched, 1)

    # ------------------------------------------------------------------ JSON
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary representation (round-trips via from_dict)."""
        # asdict recurses into nested dataclasses (policies, event specs).
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GridSpec":
        """Inverse of :meth:`to_dict`, with schema validation.

        Specs written before the batch backend chose its own hot loop carry
        ``"sampler"`` / ``"accel"`` fields; they load when the value is the
        old default ``"auto"`` and are rejected otherwise.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(f"{cls._spec_kind} spec must be a JSON object")
        payload = dict(data)
        for knob in _REMOVED_KNOBS:
            value = payload.pop(knob, "auto")
            if value != "auto":
                raise ConfigurationError(
                    f"the {knob!r} {cls._spec_kind} spec field was removed: the "
                    f"batch backend chooses its sampling path itself; drop "
                    f"{knob}={value!r} from the spec"
                )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {cls._spec_kind} spec fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(
                f"invalid {cls._spec_kind} spec: {error}"
            ) from None

    def to_json(self, indent: int = 2) -> str:
        """Serialise the spec to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        """Parse a spec from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{cls._spec_kind} spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a (protocol parameters, population size) combination.

    The cell's ``cell_id`` is stable across runs and is what ``--resume``
    matches on; ``seeds`` lists the per-repetition seeds derived from the
    spec's root seed.
    """

    cell_id: str
    n: int
    params: Dict[str, Any]
    seeds: Tuple[int, ...]


def _param_suffix(params: Dict[str, Any]) -> str:
    if not params:
        return ""
    parts = [f"{key}={params[key]}" for key in sorted(params)]
    return "-" + "-".join(parts)


@dataclass
class SweepSpec(GridSpec):
    """A declarative experiment sweep.

    Attributes:
        name: Sweep name; determines the artifact file names.
        protocol: Registry name (see :mod:`repro.experiments.registry`).
        ns: Population sizes of the grid.
        seeds_per_cell: Seeded repetitions per cell.
        base_seed: Root seed; every cell seed is derived from it.
        backend: Simulation backend (``"agent"``, ``"batch"``, ``"auto"``).
        params: Protocol parameters shared by every cell.
        param_grid: Optional per-parameter value lists; the grid is the
            cartesian product of these with ``ns``.
        budget: Interaction-budget policy.
        check_interval_factor: Convergence-check cadence in units of ``n``
            (one parallel-time unit each).
        max_checks: Upper bound on the number of convergence checks per run;
            the cadence is stretched to ``budget / max_checks`` when the
            budget is large (quadratic protocols), keeping checkpointing
            overhead bounded while the geometric skips do the fast-forwarding.
        confirm_checks: Consecutive satisfied checks required to stop early.
        cell_timeout_s: Optional wall-time budget per cell.  The worker
            threads the remaining budget into every run (the simulator stops
            with ``stopped_reason="wall-time"`` when it is exceeded) and
            marks the cell as failed with a clean timeout record instead of
            hanging the sweep; ``--resume`` re-runs timed-out cells.
        description: Free-form text carried into the artifact.
    """

    name: str
    protocol: str
    ns: List[int]
    seeds_per_cell: int = 5
    base_seed: SeedLike = 0
    backend: str = "auto"
    params: Dict[str, Any] = field(default_factory=dict)
    param_grid: Dict[str, List[Any]] = field(default_factory=dict)
    budget: BudgetPolicy = field(default_factory=BudgetPolicy)
    check_interval_factor: float = 1.0
    max_checks: int = 2000
    confirm_checks: int = 3
    cell_timeout_s: Optional[float] = None
    description: str = ""

    _spec_kind = "sweep"

    def __post_init__(self) -> None:
        self._validate_grid()
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )

    # ------------------------------------------------------------------ grid
    def cells(self) -> List[SweepCell]:
        """Expand the grid into cells with deterministically derived seeds."""
        expanded: List[SweepCell] = []
        for variant in self._param_variants():
            suffix = _param_suffix(
                {key: variant[key] for key in sorted(self.param_grid)}
            )
            for n in self.ns:
                seeds = tuple(
                    derive_seed(self.base_seed, "sweep", self.name, self.protocol, n, repr(sorted(variant.items())), index)
                    for index in range(self.seeds_per_cell)
                )
                expanded.append(
                    SweepCell(
                        cell_id=f"{self.protocol}{suffix}-n{n}",
                        n=n,
                        params=variant,
                        seeds=seeds,
                    )
                )
        return expanded
