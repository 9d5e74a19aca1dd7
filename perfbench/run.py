#!/usr/bin/env python3
"""The repository's benchmark: one workload, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload count-exact-n64 --seed 1 --seconds 25 --trace 0

Workloads: ``approximate-n256``, ``count-exact-n64``, ``backup-exact-n1e3``
(the compute workloads of :mod:`compute`) and ``sweep-service`` (see
:mod:`service`).  Iterations repeat until ``--seconds`` would be exceeded
(at least one); iteration ``i`` takes the ``i``-th seed of a stream derived
from ``--seed`` (a simulation seed, or a sweep's base seed).

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` runs one plain iteration and then the same iteration under
the span wrappers of :mod:`tracing`, requires both to produce identical
results, reports the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

Timings are scaled to a nominal host.  A shared host's speed drifts by up
to 2x over tens of seconds, so a run also times a fixed pure-Python
reference loop before every iteration (and every set-up sample).  With
``slowness`` the reference time over ``NOMINAL_REFERENCE_S``, a reported
time is the measured one divided by ``slowness`` and a rate is multiplied
by it: seconds on a host where the reference loop takes
``NOMINAL_REFERENCE_S``.  Times and reference times are averaged with
:func:`trimmed_mean`: the host switches between a fast and a slow speed
every few seconds, and unlike a median a trimmed mean follows the share of
time it spends slow smoothly instead of jumping between the two speeds.  The loop does not touch the program, so a change
to the program moves the reported figures as it moves the measured ones.
Each run prints its raw figures and its ``slowness`` too.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The program
is imported from ``src/`` next to this directory; without it the run exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench"
COMPUTE = ("approximate-n256", "count-exact-n64", "backup-exact-n1e3")
WORKLOADS = (*COMPUTE, "sweep-service")
#: Fresh processes timed per run for the compute workloads' setup_s.
SETUP_PROBES = 9
#: Server-and-worker boots timed per run for sweep-service's setup_s.
SETUP_BOOTS = 5
#: Seconds the reference loop takes on the nominal host timings are scaled to.
NOMINAL_REFERENCE_S = 0.020


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Iteration ``index``'s input seed; independent of the program's own RNG code."""
    return int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()[:4], "big")


def import_program() -> None:
    if not (SOURCE / "repro" / "engine" / "simulator.py").is_file():
        raise SystemExit(f"error: no program source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def reference_s() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's current speed."""
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    for index in range(150_000):
        key = index % 1000
        counts[key] = counts.get(key, 0) + index
    return time.perf_counter() - started


def trimmed_mean(values: List[float]) -> float:
    """Mean of the values left after dropping the lowest and highest fifth."""
    ordered = sorted(values)
    cut = len(ordered) // 5
    return sum(ordered[cut:len(ordered) - cut]) / (len(ordered) - 2 * cut)


def slowness(references: List[float]) -> float:
    """How much slower than the nominal host these reference timings ran."""
    return trimmed_mean(references) / NOMINAL_REFERENCE_S


def interleaved(sample: Callable[[], float], count: int) -> Tuple[List[float], float]:
    """``count`` samples, each after a reference timing; and the host's slowness."""
    samples: List[float] = []
    references: List[float] = []
    for _ in range(count):
        references.append(reference_s())
        samples.append(sample())
    references.append(reference_s())
    return samples, slowness(references)


def measure(iterate: Callable[[int], Any], seconds: float) -> Tuple[List[Any], float, float]:
    """Iterate until the next iteration would end past ``seconds``.

    Also returns this process's peak resident memory in MB right after the
    first iteration (later iterations only add allocator growth, and how
    many of them fit depends on the host's speed), and the host's slowness
    from a reference timing before each iteration and after the last.
    """
    results: List[Any] = []
    references: List[float] = []
    started = time.perf_counter()
    while True:
        references.append(reference_s())
        tick = time.perf_counter()
        results.append(iterate(len(results)))
        last = time.perf_counter() - tick
        if len(results) == 1:
            first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - started + last > seconds:
            references.append(reference_s())
            return results, first_peak_mb, slowness(references)


def report_host(setup_slowness: float, run_slowness: float, raw: Dict[str, float]) -> None:
    print(f"  host slowness {run_slowness:.3f} while measuring, {setup_slowness:.3f} while setting up "
          f"(reference loop {NOMINAL_REFERENCE_S * 1000:.0f} ms on the nominal host)")
    print("  raw " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))


def probe_setup(protocol: str, n: int, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first interaction."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), protocol, str(n), str(seed)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return float(completed.stdout.split()[-1]) - started


# ----------------------------------------------------------------- compute
def compute_run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], int, List[str], Any]:
    import compute
    from tracing import SpanRecorder

    workload = compute.WORKLOADS[name]
    seeds = [derive_seed(name, seed, 0)]
    if not trace:
        setups, setup_slowness = interleaved(
            lambda: probe_setup(workload.protocol, workload.n, seeds[0]), SETUP_PROBES
        )
        iterations, peak_mb, run_slowness = measure(
            lambda index: compute.run_iteration(workload, [derive_seed(name, seed, index)]), seconds
        )
        runs = [run for iteration in iterations for run in iteration.runs]
        interactions = sorted(run.result.interactions for run in runs)
        print(f"  {len(runs)} seeds, interactions {interactions[0]}..{interactions[-1]} "
              f"(median {median(interactions):.0f})")
        raw = {
            "setup_s": trimmed_mean(setups),
            "wall_s": trimmed_mean([iteration.wall_s for iteration in iterations]),
            "events_per_s": compute.events_per_s(iterations),
        }
        report_host(setup_slowness, run_slowness, raw)
        metrics = {
            "setup_s": raw["setup_s"] / setup_slowness,
            "wall_s": raw["wall_s"] / run_slowness,
            "events_per_s": raw["events_per_s"] * run_slowness,
            "peak_rss_mb": peak_mb,
        }
        problems = [f"seed {run.seed}: {run.problem}" for run in runs if not run.ok]
        return metrics, len(runs), problems, None

    plain = compute.run_iteration(workload, seeds)
    recorder = SpanRecorder()
    traced = compute.traced_iteration(workload, seeds, recorder)
    problems = [f"seed {run.seed}: {run.problem}" for run in plain.runs + traced.runs if not run.ok]
    for before, after in zip(plain.runs, traced.runs):
        if before.fingerprint() != after.fingerprint():
            problems.append(f"seed {before.seed}: the traced run diverged from the plain run")
    metrics = compute.layer_metrics(recorder, traced, SpanRecorder.wrap_cost_s())
    metrics["bench.trace_overhead"] = traced.wall_s / plain.wall_s - 1.0
    # The simulate envelope is not a layer: its self time is the engine loop.
    metrics["bench.unattributed_s"] = (
        traced.wall_s - recorder.self_s_excluding(("simulate",)) - metrics["bench.tracer_s"]
    )
    return metrics, len(plain.runs) + len(traced.runs), problems, recorder


# ----------------------------------------------------------------- service
def service_run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], int, List[str], Any]:
    import service
    from repro.server.cache import stable_document
    from tracing import SpanRecorder

    def spec(index: int) -> Any:
        return service.make_spec(derive_seed(name, seed, index))

    def workdir(index: int) -> Path:
        return OUT / f"service-{os.getpid()}-{index}"

    if not trace:
        boots: List[Any] = []

        def boot() -> float:
            if boots:
                boots[-1].stop()
            boots.append(service.Service(workdir(len(boots))))
            return boots[-1].setup_s

        setups, setup_slowness = interleaved(boot, SETUP_BOOTS)
        booted = boots[-1]
        peaks: List[float] = []

        def iterate(index: int) -> Any:
            iteration = service.run_iteration(spec(index), booted)
            if not peaks:  # the server's cache grows with every iteration
                peaks.append(booted.peak_rss_mb())
            return iteration

        try:
            iterations, peak_mb, run_slowness = measure(iterate, seconds)
        finally:
            booted.stop()
        for label, values in (
            ("cli_s", [it.cli_s for it in iterations]),
            ("job_s", [it.cold.wall_s for it in iterations]),
            ("cached_job_s", [it.warm.wall_s for it in iterations]),
        ):
            print(f"  {label:<22} {median(values):.4f} s (median of {len(values)})")
        raw = {
            "setup_s": trimmed_mean(setups),
            "wall_s": trimmed_mean([it.wall_s for it in iterations]),
            "events_per_s": service.events_per_s(iterations),
        }
        report_host(setup_slowness, run_slowness, raw)
        metrics = {
            "setup_s": raw["setup_s"] / setup_slowness,
            "wall_s": raw["wall_s"] / run_slowness,
            "events_per_s": raw["events_per_s"] * run_slowness,
            "peak_rss_mb": max(peak_mb, *peaks),
        }
        problems = [problem for it in iterations for problem in it.problems]
        return metrics, sum(it.attempted for it in iterations), problems, None

    plain_service = service.Service(workdir(0))
    try:
        plain = service.run_iteration(spec(0), plain_service)
    finally:
        plain_service.stop()
    recorder = SpanRecorder()
    traced_service = service.Service(workdir(1), traced=True)
    try:
        traced = service.traced_iteration(spec(0), traced_service, recorder)
        cache_stats = traced_service.client.cache_stats()
    finally:
        worker_rtts = traced_service.stop()
    problems = plain.problems + traced.problems
    if stable_document(plain.cli_document) != stable_document(traced.cli_document):
        problems.append("the traced sweep diverged from the plain sweep")
    metrics = service.layer_metrics(recorder, traced, cache_stats, worker_rtts)
    metrics["bench.trace_overhead"] = traced.wall_s / plain.wall_s - 1.0
    metrics["bench.unattributed_s"] = traced.wall_s - recorder.self_s_excluding(())
    return metrics, plain.attempted + traced.attempted, problems, recorder


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    run = compute_run if args.workload in COMPUTE else service_run
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    measured, attempted, problems, recorder = run(args.workload, args.seed, args.seconds, bool(args.trace))

    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        # A layer the workload does not exercise reports 0.
        value = float(measured.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<34} {value:.6g} {metric['unit']}")
    failed = min(attempted, len(problems))
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4g}")
    if recorder is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"metrics": measured, **recorder.as_dict()}, indent=1), encoding="utf-8")
        print(f"  spans written to {path.relative_to(ROOT)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
