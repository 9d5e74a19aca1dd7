"""Parallel execution of sweep specifications.

A sweep expands into *cells* (one per population size and parameter
variant); each cell runs its seeded repetitions in a single task, and tasks
are fanned out across cores with :mod:`multiprocessing`.  Everything a
worker needs travels as plain JSON-able payloads and registry *names* — no
live protocol objects cross the process boundary — so the pool runs under
the ``spawn`` start method (the only one available everywhere, and the one
that catches hidden pickling dependencies on all platforms).

Failures are captured per cell: a crashing protocol marks its cell with the
traceback and the rest of the sweep completes normally.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional


from ..engine.simulator import simulate
from .aggregate import cell_stats
from .registry import resolve_protocol
from .spec import SweepCell, SweepSpec

__all__ = [
    "PoolExecutor",
    "SweepRunner",
    "cell_payload",
    "execute_cell",
    "run_cell_seeds",
]

Progress = Optional[Callable[[str], None]]

#: How many times :class:`PoolExecutor` re-submits a lost task before it
#: returns a synthetic error record for it.
POOL_RETRIES = 1

#: Seconds between the checks for a dead worker while a task is pending.
_DEATH_POLL_S = 0.1


class WorkerDied(RuntimeError):
    """A pool worker process exited while tasks were pending."""


class PoolExecutor:
    """A ``spawn``-pool front end for one run's cell tasks.

    :class:`SweepRunner` maps one run's pending cells through it.
    ``PoolExecutor`` owns the run's pool, detects tasks lost to a worker
    failure, and retries just the affected payloads up to
    :data:`POOL_RETRIES` times.  A task is lost when its result raises
    (the pool is then rebuilt) or when a worker process of the pool dies,
    killed by a signal or the OOM killer, before the task's result
    arrived.  A ``multiprocessing`` pool replaces a dead worker but never
    delivers the result of the task it held, and which task that was is
    unknown, so every task still pending then counts as lost and is
    retried on the same pool once its replacement worker runs.
    Deterministic failures inside the executor never reach this layer —
    cell executors capture their own exceptions into the record's
    ``error`` field — so a retry only ever re-runs work that produced no
    record at all.

    Args:
        executor: Picklable module-level callable mapped over payloads.
        workers: Worker process count; ``None`` uses ``os.cpu_count()``.
            Below 2 runs serially in-process (also the automatic fallback
            when the pool cannot be created, e.g. in sandboxes).
        progress: Optional line-oriented progress callback.
        pool_factory: Test seam; ``None`` uses ``spawn`` pools.  A factory
            must return an object with ``apply_async`` / ``terminate`` /
            ``join``; worker deaths are detected in pools that list their
            worker processes as ``multiprocessing`` pools do.
    """

    def __init__(
        self,
        executor: Callable[[Dict[str, Any]], Dict[str, Any]],
        workers: Optional[int] = None,
        progress: Progress = None,
        pool_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.executor = executor
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.progress = progress
        self._pool_factory = pool_factory
        self._pool: Any = None
        #: The current pool's worker processes when last all alive (empty
        #: for a pool that does not list them).
        self._workers: List[Any] = []
        self._serial = self.workers < 2 and pool_factory is None

    def _report(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    def _ensure_pool(self) -> Any:
        if self._serial or self._pool is not None:
            return self._pool
        try:
            if self._pool_factory is not None:
                self._pool = self._pool_factory(self.workers)
            else:
                context = multiprocessing.get_context("spawn")
                self._pool = context.Pool(processes=self.workers)
            self._watch_workers()
        except (OSError, ValueError) as error:
            # Sandboxes without process support fall back to serial execution.
            self._report(f"worker pool unavailable ({error}); running serially")
            self._serial = True
        return self._pool

    def _watch_workers(self) -> None:
        """Watch the pool's workers, once it has replaced every dead one."""
        pool = self._pool
        workers = getattr(pool, "_pool", None)
        if workers is None:
            return
        while len(workers) < pool._processes or any(
            worker.exitcode is not None for worker in workers
        ):
            time.sleep(_DEATH_POLL_S)
        self._workers = list(workers)

    def _worker_died(self) -> bool:
        """Whether a watched worker process has exited.

        The pool's own list of workers differing from the watched one means
        the same: the pool already replaced a worker that died.
        """
        workers = self._workers
        return any(worker.exitcode is not None for worker in workers) or (
            self._pool._pool != workers
        )

    def _result(self, task: Any) -> Dict[str, Any]:
        """The record of ``task``; raises :class:`WorkerDied` once a worker died."""
        if self._workers:
            while not task.ready():
                if self._worker_died():
                    raise WorkerDied("a pool worker process died")
                task.wait(_DEATH_POLL_S)
        return task.get()

    def _discard_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:  # noqa: BLE001 - the pool is already broken
                pass
            self._pool = None
            self._workers = []

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._discard_pool()

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def map(
        self,
        payloads: List[Dict[str, Any]],
        on_result: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[Dict[str, Any]]:
        """Run :attr:`executor` on every payload; return records in order.

        A task still missing after :data:`POOL_RETRIES` re-submissions
        yields a synthetic record with the failure in its ``error`` field
        instead of raising.
        """
        results: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        pending = list(enumerate(payloads))
        attempt = 0
        while pending:
            pool = self._ensure_pool()
            if pool is None:
                for index, payload in pending:
                    results[index] = self.executor(payload)
                    if on_result:
                        on_result(results[index])
                break
            tasks = [
                (index, payload, pool.apply_async(self.executor, (payload,)))
                for index, payload in pending
            ]
            lost = []
            last_error: Optional[BaseException] = None
            for index, payload, task in tasks:
                try:
                    results[index] = self._result(task)
                    if on_result:
                        on_result(results[index])
                except Exception as error:  # noqa: BLE001 - worker failure path
                    lost.append((index, payload))
                    last_error = error
            if not lost:
                break
            if self._workers and self._worker_died():
                self._watch_workers()
            else:
                self._discard_pool()
            attempt += 1
            if attempt > POOL_RETRIES:
                for index, payload in lost:
                    results[index] = {
                        "cell_id": payload.get("cell_id"),
                        "n": payload.get("n"),
                        "params": payload.get("params"),
                        "seeds": payload.get("seeds"),
                        "runs": [],
                        "stats": None,
                        "error": (
                            f"worker lost after {attempt} attempts: "
                            f"{last_error!r}"
                        ),
                        "wall_time_s": None,
                    }
                    if on_result:
                        on_result(results[index])
                break
            self._report(
                f"retrying {len(lost)} lost task(s) after worker failure "
                f"({last_error!r}), attempt {attempt + 1}"
            )
            pending = lost
        return [record for record in results if record is not None]


def _timeout_message(cell_id: str, completed: int, total: int, timeout: float) -> str:
    return (
        f"cell {cell_id} exceeded its wall-time budget of {timeout:g}s "
        f"after {completed} of {total} runs"
    )


def run_cell_seeds(
    cell_id: str,
    seeds: List[Any],
    timeout: Optional[float],
    started: float,
    run_one: Callable[[Any, Optional[float]], Dict[str, Any]],
) -> "tuple[List[Dict[str, Any]], Optional[str]]":
    """Run a cell's seeded repetitions under an optional wall-time budget.

    ``run_one(seed, remaining_s)`` executes one run and returns its record
    (which must expose ``stopped_reason``); the remaining budget is threaded
    into every run so the simulator stops with ``stopped_reason="wall-time"``
    rather than overrunning.  Returns ``(runs, error)``: on a budget overrun
    the completed runs are preserved and ``error`` carries the timeout
    record.  Shared by the sweep and scenario cell executors so both produce
    identical timeout records.
    """
    runs: List[Dict[str, Any]] = []
    for seed in seeds:
        remaining: Optional[float] = None
        if timeout is not None:
            remaining = timeout - (time.perf_counter() - started)
            if remaining <= 0:
                return runs, _timeout_message(cell_id, len(runs), len(seeds), timeout)
        run = run_one(seed, remaining)
        runs.append(run)
        if run.get("stopped_reason") == "wall-time":
            return runs, _timeout_message(cell_id, len(runs), len(seeds), timeout)
    return runs, None


def cell_payload(spec: SweepSpec, cell: SweepCell) -> Dict[str, Any]:
    """Everything a worker needs to run one sweep cell, as picklable primitives.

    This is the sweep half of the per-cell execute seam: a payload built
    here feeds :func:`execute_cell` in any process — the sweep runner's
    pool, the job server, or inline — and, being plain JSON-able data, it
    doubles as the content the server's result cache is addressed by.
    """
    return {
        "cell_id": cell.cell_id,
        "protocol": spec.protocol,
        "n": cell.n,
        "params": dict(cell.params),
        "seeds": list(cell.seeds),
        "backend": spec.backend,
        "budget": spec.budget.budget(cell.n),
        "check_interval": spec.check_interval(cell.n),
        "confirm_checks": spec.confirm_checks,
        "cell_timeout_s": spec.cell_timeout_s,
    }


def execute_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one sweep cell; the (spawn-safe) worker entry point.

    Returns the cell record embedded into the ``SWEEP_*.json`` artifact.
    Exceptions are converted into the record's ``error`` field so a single
    failing cell cannot take down the whole sweep.  A ``cell_timeout_s``
    wall-time budget is threaded into every run and enforced between runs:
    a cell that exceeds it keeps its completed runs but is marked failed
    with a timeout record (``--resume`` re-runs it) instead of hanging the
    sweep.
    """
    started = time.perf_counter()
    timeout = payload.get("cell_timeout_s")
    record: Dict[str, Any] = {
        "cell_id": payload["cell_id"],
        "n": payload["n"],
        "params": payload["params"],
        "seeds": payload["seeds"],
        "runs": [],
        "stats": None,
        "error": None,
    }
    try:
        entry = resolve_protocol(payload["protocol"])
        n = payload["n"]
        params = payload["params"]

        def run_one(seed: Any, remaining: Optional[float]) -> Dict[str, Any]:
            protocol = entry.build(n, params)
            convergence = entry.convergence(n, params) if entry.convergence else None
            result = simulate(
                protocol,
                n,
                seed=seed,
                backend=payload["backend"],
                convergence=convergence,
                max_interactions=payload["budget"],
                check_interval=payload["check_interval"],
                confirm_checks=payload["confirm_checks"],
                max_wall_time_s=remaining,
            )
            # The engine's artifact serialisation hook: summary plus the
            # output histogram, state-space summary, and extra payload.
            return result.as_json_dict()

        runs, error = run_cell_seeds(
            payload["cell_id"], payload["seeds"], timeout, started, run_one
        )
        record["runs"] = runs
        record["error"] = error
        if error is None:
            record["stats"] = cell_stats(n, runs)
    except Exception:  # noqa: BLE001 - captured into the artifact by design
        record["error"] = traceback.format_exc()
    record["wall_time_s"] = round(time.perf_counter() - started, 3)
    return record


class SweepRunner:
    """Execute a :class:`~repro.experiments.spec.SweepSpec` across cores.

    Args:
        spec: The sweep to run.
        workers: Worker process count; ``None`` uses ``os.cpu_count()``.
            Values below 2 run serially in-process (the fallback path, also
            taken automatically when the pool cannot be created).
        progress: Optional line-oriented progress callback.

    The fan-out machinery is reusable by other cell-shaped experiment
    subsystems: subclasses override the :attr:`executor` worker entry point
    (a picklable module-level function) and :meth:`payloads` — the scenario
    runner of :mod:`repro.scenarios` plugs into the same pool this way.
    """

    #: Worker entry point mapped over the payloads (must be a module-level
    #: function so the ``spawn`` pool can pickle it by reference).
    executor = staticmethod(execute_cell)

    def __init__(
        self,
        spec: SweepSpec,
        workers: Optional[int] = None,
        progress: Progress = None,
    ) -> None:
        self.spec = spec
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.progress = progress

    def payloads(self, cells: List[Any]) -> List[Dict[str, Any]]:
        """Build the picklable worker payload for each pending cell."""
        return [cell_payload(self.spec, cell) for cell in cells]

    def _report(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    def run(self, skip_cell_ids: Iterable[str] = ()) -> List[Dict[str, Any]]:
        """Run every cell not in ``skip_cell_ids``; return the cell records.

        Records come back in the spec's grid order.  Skipped cells are not
        included — the artifact layer merges them from the previous run.
        """
        skip = set(skip_cell_ids)
        cells = self.spec.cells()
        pending = [cell for cell in cells if cell.cell_id not in skip]
        if skip:
            self._report(
                f"resume: {len(cells) - len(pending)} of {len(cells)} cells "
                f"already complete"
            )
        if not pending:
            return []
        payloads = self.payloads(pending)
        if self.workers >= 2 and len(payloads) > 1:
            records = self._run_parallel(payloads)
        else:
            records = self._run_serial(payloads)
        order = {cell.cell_id: index for index, cell in enumerate(cells)}
        records.sort(key=lambda record: order.get(record["cell_id"], len(order)))
        return records

    # ----------------------------------------------------------- strategies
    def _run_serial(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        records = []
        executor = type(self).executor
        for payload in payloads:
            self._report(f"cell {payload['cell_id']} (n={payload['n']}) ...")
            record = executor(payload)
            self._report(_outcome_line(record))
            records.append(record)
        return records

    def _run_parallel(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        workers = min(self.workers, len(payloads))
        self._report(
            f"running {len(payloads)} cells on {workers} worker processes"
        )
        with PoolExecutor(
            type(self).executor, workers=workers, progress=self.progress
        ) as pool:
            return pool.map(
                payloads, on_result=lambda record: self._report(_outcome_line(record))
            )


def _outcome_line(record: Dict[str, Any]) -> str:
    if record["error"]:
        reason = record["error"].strip().splitlines()[-1]
        return f"  {record['cell_id']}: FAILED ({reason})"
    stats = record["stats"] or {}
    rate = stats.get("convergence_rate")
    interactions = (stats.get("convergence_interactions") or {}).get("mean")
    mean_text = f"{interactions:.3g}" if interactions is not None else "n/a"
    return (
        f"  {record['cell_id']}: {stats.get('converged_runs', 0)}/{stats.get('runs', 0)} "
        f"converged (rate {rate:.2f}), mean convergence {mean_text} interactions, "
        f"{record['wall_time_s']:.1f}s"
    )
