"""The ``sweep-service`` workload: one sweep by three routes.

A run boots ``repro-serve --remote-only`` on a fresh ``--cache-dir``
plus one ``repro-worker`` (their start-up is ``setup_s``) and keeps them
for all its iterations.  Each iteration generates a sweep with its own
base seed, so none of its cells is in the cache yet, and runs it

1. in-process through ``SweepRunner(workers=1)`` (``cli_s``),
2. as a job the worker computes, every cell a cache miss (``job_s``),
3. as the identical job again, served from the cache (``cached_job_s``),

and requires both served artifacts to equal the in-process one under
``repro.server.cache.stable_document``.  Cells are cheap, so the service
path (queue, leases, result pushes, cache, serialisation) dominates.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.artifacts import build_document
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec
from repro.server.cache import stable_document
from repro.server.client import ReproClient, ServerError

from tracing import SpanRecorder, patched, span_or_null

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"listening on (http://[^\s]+)")

#: 16 population sizes x 4 source counts = 64 cells of 2 seeds each.
SIZES = [600 + 16 * index for index in range(16)]
SOURCE_COUNTS = [1, 2, 3, 4]


def make_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        name="perfbench-service",
        protocol="one-way-epidemic",
        ns=SIZES,
        seeds_per_cell=2,
        base_seed=seed,
        backend="batch",
        param_grid={"source_count": SOURCE_COUNTS},
        description="Generated benchmark sweep: many cheap broadcast cells.",
    )


class Child:
    """A program subprocess whose output is drained on a thread."""

    def __init__(self, argv: List[str], env: Dict[str, str], ready: Callable[[str], bool]) -> None:
        self.log: List[str] = []
        self.ready_line: Optional[str] = None
        self._ready = threading.Event()
        self._is_ready = ready
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.log.append(line)
            if self.ready_line is None and self._is_ready(line):
                self.ready_line = line
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout_s: float = 60.0) -> str:
        self._ready.wait(timeout_s)
        if self.ready_line is None:
            raise RuntimeError(f"{self.process.args[:3]} never became ready:\n" + "".join(self.log))
        return self.ready_line

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``), 0 when unreadable."""
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15)
        self._thread.join(timeout=15)


class Service:
    """``repro-serve --remote-only`` on ``workdir/cache`` plus one worker.

    With ``traced`` the worker runs under :mod:`traced_worker`, which
    writes its lease and push round trips when :meth:`stop` ends it.
    """

    def __init__(self, workdir: Path, traced: bool = False) -> None:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.workdir = workdir
        self._worker_trace = workdir / "worker-trace.json"
        if traced:
            launcher = [str(HERE / "traced_worker.py"), str(self._worker_trace)]
        else:
            launcher = ["-m", "repro.server.worker"]
        started = time.perf_counter()
        self.server = Child(
            [sys.executable, "-m", "repro.server.cli", "--port", "0", "--workers", "1",
             "--remote-only", "--cache-dir", str(workdir / "cache"), "--quiet"],
            env,
            _LISTENING.search,
        )
        self.worker: Optional[Child] = None
        try:
            url = _LISTENING.search(self.server.wait_ready()).group(1)
            # --poll-s 0.05: an idle worker notices a new job within 50 ms.
            self.worker = Child(
                [sys.executable, *launcher, "--server", url, "--worker-id", "perfbench",
                 "--poll-s", "0.05"],
                env,
                lambda line: True,  # the worker's first line is its start-up banner
            )
            self.worker.wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.client = ReproClient(url, timeout_s=120.0)

    def peak_rss_mb(self) -> float:
        return max(self.server.peak_rss_mb(), self.worker.peak_rss_mb() if self.worker else 0.0)

    def stop(self) -> Dict[str, List[float]]:
        """End both processes, remove ``workdir``; the worker's round trips."""
        try:
            if self.worker is not None:
                self.worker.stop()
        finally:
            self.server.stop()
        trace = self._worker_trace
        rtts = json.loads(trace.read_text(encoding="utf-8")) if trace.exists() else {}
        shutil.rmtree(self.workdir, ignore_errors=True)
        return rtts


@dataclass
class Job:
    wall_s: float
    fetch_s: float
    status: Dict[str, Any]
    artifact: Optional[Dict[str, Any]]


@dataclass
class ServiceIteration:
    wall_s: float
    cli_s: float
    cli_document: Dict[str, Any]
    cold: Job
    warm: Job
    problems: List[str]

    #: The in-process sweep and the two jobs.
    attempted = 3


def _run_job(client: ReproClient, spec: Dict[str, Any], recorder: Optional[SpanRecorder]) -> Job:
    """Submit, wait for the terminal event, fetch the artifact."""
    started = time.perf_counter()
    job_id = client.submit("sweep", spec)["job_id"]
    with span_or_null(recorder, "service.wait"):
        for _event in client.watch(job_id):
            pass
    fetch_started = time.perf_counter()
    try:
        artifact: Optional[Dict[str, Any]] = client.artifact(job_id)
    except ServerError:
        artifact = None
    ended = time.perf_counter()
    return Job(ended - started, ended - fetch_started, client.status(job_id), artifact)


def _check_job(name: str, job: Job, grid: int, cached: bool, expected: Any) -> List[str]:
    progress = job.status.get("progress") or {}
    if job.status.get("state") != "done" or job.artifact is None:
        return [f"{name} job ended {job.status.get('state')}: {job.status.get('error')}"]
    problems = []
    if progress.get("failed_cells"):
        problems.append(f"{name} job failed cells {progress['failed_cells']}")
    field_name = "cached_cells" if cached else "remote_cells"
    if progress.get(field_name) != grid:
        problems.append(f"{name} job progress {progress} lacks {field_name} = {grid}")
    if stable_document(job.artifact) != expected:
        problems.append(f"{name} job artifact differs from the in-process sweep")
    return problems


def run_iteration(
    spec: SweepSpec, service: Service, recorder: Optional[SpanRecorder] = None
) -> ServiceIteration:
    """Run the sweep in-process, as a job and as a cached job; verify."""
    spec_dict = spec.to_dict()
    grid = len(spec.cells())
    started = time.perf_counter()
    with span_or_null(recorder, "service.cli"):
        cli_document = build_document(spec, SweepRunner(spec, workers=1).run(), workers=1)
    cli_s = time.perf_counter() - started
    cold = _run_job(service.client, spec_dict, recorder)
    warm = _run_job(service.client, spec_dict, recorder)
    expected = stable_document(cli_document)
    problems = []
    if cli_document.get("failed_cells"):
        problems.append(f"in-process sweep failed cells {cli_document['failed_cells']}")
    problems += _check_job("cold", cold, grid, False, expected)
    problems += _check_job("cached", warm, grid, True, expected)
    return ServiceIteration(time.perf_counter() - started, cli_s, cli_document, cold, warm, problems)


def traced_iteration(spec: SweepSpec, service: Service, recorder: SpanRecorder) -> ServiceIteration:
    extra = (
        (SweepRunner, "executor", "experiments.execute_cell"),
        *((ReproClient, method, f"client.{method}") for method in ("submit", "status", "artifact")),
    )
    with patched(recorder, extra):
        return run_iteration(spec, service, recorder)


def events_per_s(iterations: List[ServiceIteration]) -> float:
    """Median over iterations of events per second of cell simulation time.

    Taken from the in-process sweep's run records.
    """
    rates = []
    for iteration in iterations:
        runs = [run for cell in iteration.cli_document["cells"] for run in cell["runs"]]
        events = sum(
            int(((run.get("extra") or {}).get("telemetry", {}).get("skips") or {})
                .get("applied_events", run["interactions"]))
            for run in runs
        )
        rates.append(events / sum(run["wall_time_s"] for run in runs))
    return median(rates)


def layer_metrics(
    recorder: SpanRecorder,
    traced: ServiceIteration,
    cache_stats: Dict[str, Any],
    worker_rtts: Dict[str, List[float]],
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration on a fresh service (see ``meta.json``)."""
    cold = traced.cold
    cells = (cold.artifact or {}).get("cells") or []
    cell_seconds = sum(cell.get("wall_time_s") or 0.0 for cell in cells)
    stats = cache_stats
    lookups = (stats.get("hits") or 0) + (stats.get("misses") or 0)
    submitted = cold.status.get("submitted_unix")
    started = cold.status.get("started_unix")
    executions = recorder.durations("experiments.execute_cell")
    return {
        "service.cli_s": traced.cli_s,
        "service.job_s": cold.wall_s,
        "service.cached_job_s": traced.warm.wall_s,
        "experiments.execute_cell_s": median(executions) if executions else 0.0,
        "experiments.artifact_bytes": len(json.dumps(traced.cli_document)),
        "server.queue_wait_s": (started - submitted) if submitted and started else 0.0,
        "server.lease_rtt_s": median(worker_rtts.get("lease") or [0.0]),
        "server.push_rtt_s": median(worker_rtts.get("push") or [0.0]),
        "server.overhead_s": cold.wall_s - cell_seconds,
        "server.cache.hit_ratio": (stats.get("hits") or 0) / lookups if lookups else 0.0,
        "server.cache.disk_writes": stats.get("puts") or 0,
        "server.cache.disk_loads": stats.get("disk_loads") or 0,
        "server.artifact_fetch_s": cold.fetch_s,
    }
