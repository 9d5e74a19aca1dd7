"""The compute workloads: one process, ``simulate`` on the batch backend.

Every knob the engine has (sampler, accel) stays at its default, because
every default must be the measured winner.  One iteration runs one seed
and verifies its answer; a run gives every iteration the next seed of a
stream derived from the workload seed, so its median averages over many
seeds.  The traced run repeats one iteration under the wrappers of
:mod:`tracing`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional

from repro.engine.simulator import simulate
from repro.experiments.registry import resolve_protocol

from tracing import DeltaKeyProbe, SpanRecorder, patched, span_or_null


@dataclass(frozen=True)
class ComputeWorkload:
    """``protocol`` at population ``n``.

    ``budget`` is the interaction budget of each run (``None``: the
    engine's default).  With ``window`` set, each seed runs exactly that
    many interactions instead of stopping at the predicate.
    """

    protocol: str
    n: int
    budget: Optional[int] = None
    window: Optional[int] = None


#: One seed takes about a second, so a run holds a few dozen iterations and
#: its median averages out both the seeds and short slow spells of the host.
WORKLOADS: Dict[str, ComputeWorkload] = {
    # Time-to-answer of Approximate is bimodal at n = 256 (about a third of
    # seeds need a second approximation round, ~2.3x the interactions), so a
    # fixed window per seed is what keeps wall_s resolvable across seeds.
    "approximate-n256": ComputeWorkload("approximate", 256, window=60_000),
    # Run to the predicate, about 1 seed in 100 settles on a wrong count at
    # n = 64, and at n = 128 a run averages too few seeds (~2.3 s each) to
    # hold wall_s inside its bound; a window ending just before most seeds
    # converge (13-27 k interactions) gives every seed nearly the same work.
    "count-exact-n64": ComputeWorkload("count-exact", 64, window=16_000),
    # Quadratic protocol: budget 16 n^2 (the backup-profile builtin's policy).
    "backup-exact-n1e3": ComputeWorkload("backup-exact", 1_000, budget=16 * 1_000**2),
}


@dataclass
class Run:
    """One seed's result and, in the traced run, its ``delta_key`` probe."""

    seed: int
    result: Any
    problem: str  # empty when the answer verified
    probe: Optional[DeltaKeyProbe] = None

    @property
    def ok(self) -> bool:
        return not self.problem

    def fingerprint(self) -> Dict[str, Any]:
        """What the traced run must reproduce exactly."""
        return {
            "interactions": self.result.interactions,
            "transition_calls": self.result.extra.get("transition_calls"),
            "output_counts": sorted(self.result.output_counts.items(), key=repr),
        }


@dataclass
class Iteration:
    wall_s: float
    runs: List[Run]


def _verify(workload: ComputeWorkload, predicate: Any, result: Any) -> str:
    """Empty when the run is correct, else what went wrong."""
    population = sum(result.output_counts.values())
    if population != workload.n:
        return f"histogram sums to {population}, not n = {workload.n}"
    if workload.window is not None:
        if result.interactions != workload.window:
            return f"ran {result.interactions} of a {workload.window}-interaction window"
        return ""
    if not (result.converged and predicate(result.output_counts)):
        return f"missed the paper's predicate ({result.stopped_reason} after {result.interactions})"
    return ""


def run_iteration(
    workload: ComputeWorkload, seeds: List[int], recorder: Optional[SpanRecorder] = None
) -> Iteration:
    """Run and verify every seed of the set; time the whole iteration."""
    entry = resolve_protocol(workload.protocol)
    runs: List[Run] = []
    started = time.perf_counter()
    for seed in seeds:
        protocol = entry.build(workload.n, {})
        predicate = entry.convergence(workload.n, {})
        checked = predicate
        probe = None
        if recorder is not None:
            probe = DeltaKeyProbe(recorder, protocol)
            checked = recorder.wrap("convergence.predicate", predicate)
        with span_or_null(recorder, "simulate", seed=seed):
            result = simulate(
                protocol,
                workload.n,
                seed=seed,
                backend="batch",
                convergence=checked,
                max_interactions=workload.window or workload.budget,
                stop_when_converged=workload.window is None,
            )
        runs.append(Run(seed, result, _verify(workload, predicate, result), probe))
    return Iteration(time.perf_counter() - started, runs)


def traced_iteration(workload: ComputeWorkload, seeds: List[int], recorder: SpanRecorder) -> Iteration:
    with patched(recorder):
        return run_iteration(workload, seeds, recorder)


def _telemetry(run: Run) -> Dict[str, Any]:
    return run.result.extra.get("telemetry") or {}


def events(run: Run) -> int:
    """Configuration-changing events the backend processed in this run."""
    skips = _telemetry(run).get("skips") or {}
    return int(skips.get("applied_events", run.result.interactions))


def events_per_s(iterations: List[Iteration]) -> float:
    """Median over iterations of events processed per second of simulation time."""
    return median(
        sum(events(run) for run in iteration.runs)
        / sum(run.result.wall_time_s for run in iteration.runs)
        for iteration in iterations
    )


def _sampler_records(run: Run) -> List[Dict[str, Any]]:
    sampler = _telemetry(run).get("sampler") or {}
    return [sampler, *(sampler.get("retired") or [])]


def _event_count(runs: List[Run], kind: str) -> int:
    return sum(
        1 for run in runs for event in _telemetry(run).get("events") or [] if event.get("kind") == kind
    )


def layer_metrics(recorder: SpanRecorder, traced: Iteration, wrap_cost_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (see ``meta.json``).

    Every wrapped call charges ``wrap_cost_s`` of wrapper work to the
    ``simulate`` span that encloses it; that estimate is reported as
    ``bench.tracer_s`` and taken out of ``backends.loop_self_s``.
    """
    runs = traced.runs
    tracer_s = recorder.hot_calls() * wrap_cost_s
    calls = recorder.calls("counting.delta_key")
    repeats = sum(run.probe.repeats() for run in runs if run.probe)
    noops = sum(run.probe.noops for run in runs if run.probe)
    interactions = sum(run.result.interactions for run in runs)
    applied = sum(events(run) for run in runs)
    # Draws against table (re)builds of the WeightedSampler records; the
    # NumPy kernels' records carry neither builds nor rebuilds.
    draws = sum(record.get("draws", 0) for run in runs for record in _sampler_records(run)
                if "builds" in record or "rebuilds" in record)
    rebuilds = sum(record.get("builds", 0) + record.get("rebuilds", 0)
                   for run in runs for record in _sampler_records(run))
    metrics: Dict[str, float] = {
        "counting.delta_key.calls": calls,
        "counting.delta_key.self_s": recorder.self_s("counting.delta_key"),
        "counting.delta_key.repeat_ratio": repeats / calls if calls else 0.0,
        "counting.delta_key.noop_ratio": noops / calls if calls else 0.0,
        "counting.distinct_keys": sum(run.result.distinct_states for run in runs) / len(runs),
        "samplers.draws_per_rebuild": draws / max(1, rebuilds),
        "samplers.swaps": _event_count(runs, "sampler-swap"),
        "vectorized.fallbacks": _event_count(runs, "accel-fallback"),
        "backends.events": applied,
        "backends.skip_efficiency": 1.0 - applied / interactions if interactions else 0.0,
        "backends.loop_self_s": max(0.0, recorder.self_s("simulate") - tracer_s),
        "bench.tracer_s": tracer_s,
        "convergence.checks": recorder.calls("convergence.predicate"),
        "convergence.self_s": recorder.self_s("convergence.predicate"),
    }
    for layer, methods in (
        ("samplers", ("sample", "update", "rebuild")),
        ("vectorized", ("next_pair", "next_skip", "set_count")),
    ):
        for method in methods:
            metrics[f"{layer}.{method}.calls"] = recorder.calls(f"{layer}.{method}")
            metrics[f"{layer}.{method}.self_s"] = recorder.self_s(f"{layer}.{method}")
    for phase in ("sampling", "transition", "pair_weights", "checkpoint"):
        metrics[f"backends.phase.{phase}_s"] = sum(
            ((_telemetry(run).get("phases") or {}).get(phase) or {}).get("wall_time_s", 0.0)
            for run in runs
        )
    return metrics
