"""Execution of chaos scenarios, reusing the sweep fan-out machinery.

A scenario expands into cells (population size × parameter variant ×
backend); each cell runs its seeded repetitions in one worker task, fanned
out by the :class:`~repro.experiments.runner.SweepRunner` pool via the
executor/payloads extension points.  Everything crossing the process
boundary is the JSON form of the spec plus primitives, so the ``spawn``
start method works everywhere.

Each run drives a :class:`~repro.engine.simulator.Simulator` directly (not
the ``simulate`` convenience): the runner needs the live simulator to derive
population-size-dependent acceptance predicates after churn and to measure
the post-churn output accuracy against the *new* true ``n``.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional

from ..engine.convergence import accuracy_fraction
from ..engine.hooks import CallbackHook, TimelineEvent
from ..engine.simulator import Simulator
from ..experiments.registry import ProtocolEntry, resolve_protocol
from ..experiments.runner import SweepRunner, run_cell_seeds
from .events import expand_events
from .metrics import resolve_invariant, scenario_cell_stats
from .spec import ScenarioCell, ScenarioSpec

__all__ = [
    "ScenarioRunner",
    "execute_scenario_cell",
    "scenario_cell_payload",
    "InvariantTracker",
]


class InvariantTracker(CallbackHook):
    """Measure named invariants at the start, every event, and the end.

    The measurements accumulate in :attr:`records` as
    ``{"at", "when", "values"}`` entries; the per-event measurement is also
    attached to the engine's timeline event record (under ``"invariants"``)
    so the artifact shows each disturbance next to its conservation effect.
    """

    def __init__(self, names: List[str]) -> None:
        self._specs = [resolve_invariant(name) for name in names]
        self.records: List[Dict[str, Any]] = []
        super().__init__(
            on_start=self._measure_start,
            on_timeline_event=self._measure_event,
            on_end=self._measure_end,
        )

    def _values(self, simulator: Simulator) -> Dict[str, Any]:
        counts = simulator.state_key_counts()
        return {
            spec.name: spec.compute(simulator.protocol, counts)
            for spec in self._specs
        }

    def _measure(self, simulator: Simulator, when: str) -> Dict[str, Any]:
        entry = {
            "at": simulator.interactions,
            "when": when,
            "values": self._values(simulator),
        }
        self.records.append(entry)
        return entry

    def _measure_start(self, simulator: Simulator) -> None:
        self._measure(simulator, "start")

    def _measure_event(
        self, simulator: Simulator, event: TimelineEvent, record: Dict[str, Any]
    ) -> None:
        record["invariants"] = self._measure(simulator, f"after:{event.label}")[
            "values"
        ]

    def _measure_end(self, simulator: Simulator) -> None:
        self._measure(simulator, "end")


def _run_one(
    spec: ScenarioSpec,
    entry: ProtocolEntry,
    n: int,
    backend: str,
    params: Dict[str, Any],
    seed: int,
    max_wall_time_s: Optional[float],
) -> Dict[str, Any]:
    """Execute one seeded scenario run and return its augmented record."""
    protocol = entry.build(n, params)
    tracker = InvariantTracker(spec.invariants)
    simulator = Simulator(
        protocol,
        n,
        seed=seed,
        hooks=[tracker],
        backend=backend,
    )
    convergence_factory = None
    if entry.convergence is not None:
        predicate_factory = entry.convergence

        def convergence_factory(sim: Simulator):
            # Re-derived after every event: acceptance tracks the new true n.
            return predicate_factory(sim.n, params)

    result = simulator.run(
        max_interactions=spec.budget.budget(n),
        convergence_factory=convergence_factory,
        check_interval=spec.check_interval(n),
        confirm_checks=spec.confirm_checks,
        timeline=expand_events(spec.events, n, params, seed),
        max_wall_time_s=max_wall_time_s,
    )
    run = result.as_json_dict()
    if entry.convergence is not None:
        run["post_accuracy"] = accuracy_fraction(
            simulator.output_counts(), entry.convergence(simulator.n, params)
        )
    else:
        run["post_accuracy"] = None
    run["invariants"] = tracker.records
    return run


def execute_scenario_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario cell; the (spawn-safe) worker entry point.

    Mirrors :func:`repro.experiments.runner.execute_cell`: failures and
    wall-time budget overruns become the record's ``error`` field so a
    broken cell cannot take down the whole scenario.
    """
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "cell_id": payload["cell_id"],
        "n": payload["n"],
        "backend": payload["backend"],
        "params": payload["params"],
        "seeds": payload["seeds"],
        "runs": [],
        "stats": None,
        "error": None,
    }
    try:
        spec = ScenarioSpec.from_dict(payload["spec"])
        entry = resolve_protocol(spec.protocol)

        def run_one(seed: Any, remaining: Optional[float]) -> Dict[str, Any]:
            return _run_one(
                spec,
                entry,
                payload["n"],
                payload["backend"],
                payload["params"],
                seed,
                remaining,
            )

        runs, error = run_cell_seeds(
            payload["cell_id"], payload["seeds"], spec.cell_timeout_s, started, run_one
        )
        record["runs"] = runs
        record["error"] = error
        if error is None:
            record["stats"] = scenario_cell_stats(payload["n"], runs)
    except Exception:  # noqa: BLE001 - captured into the artifact by design
        record["error"] = traceback.format_exc()
    record["wall_time_s"] = round(time.perf_counter() - started, 3)
    return record


def scenario_cell_payload(
    spec_dict: Dict[str, Any], cell: ScenarioCell
) -> Dict[str, Any]:
    """Everything a worker needs to run one scenario cell (plain primitives).

    The scenario half of the per-cell execute seam: payloads built here feed
    :func:`execute_scenario_cell` from the scenario runner and the job
    server alike.  ``spec_dict`` is
    ``spec.to_dict()`` — passed in pre-serialised so batch builders pay the
    conversion once.
    """
    return {
        "cell_id": cell.cell_id,
        "n": cell.n,
        "backend": cell.backend,
        "params": dict(cell.params),
        "seeds": list(cell.seeds),
        "spec": spec_dict,
    }


class ScenarioRunner(SweepRunner):
    """Fan scenario cells out over the shared multiprocessing pool.

    Plugs :func:`execute_scenario_cell` into
    :class:`~repro.experiments.runner.SweepRunner`'s executor/payloads
    extension points; everything else (spawn pool, serial fallback, progress
    lines, grid-order results) is inherited.
    """

    executor = staticmethod(execute_scenario_cell)

    def payloads(self, cells: List[ScenarioCell]) -> List[Dict[str, Any]]:
        spec_dict = self.spec.to_dict()
        return [scenario_cell_payload(spec_dict, cell) for cell in cells]
