"""Asynchronous job scheduling over the worker pull protocol.

A *job* is one spec of either kind — a sweep or a chaos scenario —
submitted as JSON.  The :class:`JobManager` owns a FIFO dispatch queue and
the content-addressed :class:`~repro.server.cache.ResultCache`; it
executes nothing itself.

Scheduling model:

* Jobs run strictly FIFO, one at a time, on a background dispatcher
  thread.
* Every cell takes one path, :meth:`JobManager._run_batch`: its cache key
  is looked up first, and a hit resolves the cell at once.  Misses are
  enqueued on a :class:`~repro.server.work.WorkQueue` and wait for a
  ``repro-worker`` to lease them through the HTTP pull protocol
  (:meth:`JobManager.lease_work` / :meth:`JobManager.complete_work`).
  ``repro-serve`` spawns its local workers as such processes, so local
  and remote execution are the same thing.  Leases carry a TTL kept alive
  by heartbeats; a lease whose worker dies is expired and its cell
  requeued (at-least-once, first result wins, replays dedup'd by the
  content-addressed cache key), and a cell that runs past its deadline is
  given up as failed.
* What each kind's cells are, how they run and what document they make
  comes from :data:`~repro.kinds.KINDS`, imported on first use.
* Cancellation (``DELETE /jobs/<id>``) is immediate for queued jobs.  For
  a running job it aborts the queue: pending cells are never leased, and a
  cell already in flight finishes on its worker, whose late result is
  answered ``"gone"``.
"""

from __future__ import annotations

import queue
import re
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..engine.errors import ConfigurationError
from ..fingerprint import code_fingerprint
from ..kinds import KINDS, build_document
from .cache import ResultCache, cache_key
from .work import WorkItem, WorkQueue

__all__ = [
    "JOB_STATES",
    "JobManager",
    "JobNotReady",
    "UnknownJob",
]

Progress = Optional[Callable[[str], None]]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
_TERMINAL_STATES = ("done", "failed", "cancelled")


class UnknownJob(KeyError):
    """No job with the requested id exists."""


class JobNotReady(Exception):
    """The job exists but has no artifact (not done, failed, or cancelled)."""

    def __init__(self, job_id: str, state: str) -> None:
        super().__init__(f"job {job_id!r} has no artifact (state: {state})")
        self.job_id = job_id
        self.state = state


class Job:
    """One submitted spec and its lifecycle bookkeeping (manager-internal)."""

    def __init__(self, job_id: str, kind: str, spec: Any, spec_dict: Dict[str, Any]) -> None:
        self.id = job_id
        self.kind = kind
        self.spec = spec
        self.spec_dict = spec_dict
        self.state = "queued"
        self.error: Optional[str] = None
        self.document: Optional[Dict[str, Any]] = None
        self.cancel = threading.Event()
        self.submitted_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.cached = 0
        self.executed = 0
        self.remote = 0
        #: Append-only lifecycle event log for ``GET /jobs/<id>/events``:
        #: each entry is ``{"seq": i, "event": kind, "data": {...}}`` with
        #: ``seq == index``, so SSE replay and ``Last-Event-ID`` resume are
        #: exact.  Guarded by :attr:`events_cond` (never by the manager
        #: lock), which is also how streaming readers block for news.
        self.events: List[Dict[str, Any]] = []
        self.events_cond = threading.Condition()
        self.cells: Dict[str, str] = {cell.cell_id: "pending" for cell in spec.cells()}
        self.total_cells = len(self.cells)


@dataclass
class _ActiveBatch:
    """The one batch currently exposing leasable work (manager-internal)."""

    job: Job
    queue: WorkQueue


_ID_SANITISER = re.compile(r"[^A-Za-z0-9._-]+")


class JobManager:
    """Schedule submitted jobs FIFO, cache-first, on leasing workers.

    Args:
        cache: The shared :class:`ResultCache`; a fresh default-sized one
            when omitted.
        progress: Optional line-oriented progress callback (server log).
        lease_ttl_s: Lease time-to-live.  A ``repro-worker`` that stops
            heartbeating for this long is presumed dead and its cell is
            requeued.
        max_lease_attempts: How many leases one cell may burn through
            before the manager gives up on it with a synthetic error
            record.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        progress: Progress = None,
        lease_ttl_s: float = 60.0,
        max_lease_attempts: int = 5,
    ) -> None:
        self.progress = progress
        self.cache = cache if cache is not None else ResultCache()
        if lease_ttl_s <= 0:
            raise ConfigurationError("lease_ttl_s must be positive")
        self.lease_ttl_s = lease_ttl_s
        self.max_lease_attempts = max_lease_attempts
        # The lease table of the currently running batch (jobs run FIFO,
        # so at most one batch exposes work at a time), and when each
        # worker id last polled or heartbeat.
        self._work_lock = threading.Lock()
        self._active: Optional[_ActiveBatch] = None
        self._worker_seen: Dict[str, float] = {}
        self._resolve_lock = threading.Lock()
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._seq = 0
        self._stop = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-job-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Cancel the running job and stop the dispatcher (idempotent)."""
        with self._lock:
            self._stop.set()
            for job in self._jobs.values():
                if job.state == "running":
                    job.cancel.set()
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=10.0)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _report(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    # ------------------------------------------------------------ telemetry
    def attached_workers(self) -> int:
        """Workers that polled for work or heartbeat within one lease TTL."""
        horizon = time.monotonic() - self.lease_ttl_s
        with self._work_lock:
            return sum(1 for seen in self._worker_seen.values() if seen >= horizon)

    def _saw_worker(self, worker_id: str) -> None:
        with self._work_lock:
            self._worker_seen[worker_id] = time.monotonic()

    def _emit(self, job: Job, event: str, data: Dict[str, Any]) -> None:
        """Append one lifecycle event to the job's log and wake streamers."""
        payload = {"job_id": job.id, **data}
        with job.events_cond:
            job.events.append(
                {"seq": len(job.events), "event": event, "data": payload}
            )
            job.events_cond.notify_all()

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        """Move a job to a terminal state (single funnel for all paths).

        Emits the terminal ``job`` event plus the stream-closing ``end``
        event — every terminal transition goes through here, which is what
        guarantees SSE consumers always receive exactly one ``end``.
        """
        with self._lock:
            job.state = state
            if error is not None:
                job.error = error
            job.finished_unix = time.time()
        self._emit(job, "job", {"state": state, "error": job.error})
        self._emit(job, "end", {"state": state, "error": job.error})

    def events_after(
        self,
        job_id: str,
        after: int,
        wait_s: Optional[float] = None,
    ) -> "tuple[List[Dict[str, Any]], bool]":
        """Events with ``seq > after``, and whether the stream has ended.

        Blocks up to ``wait_s`` when nothing new is pending.  ``ended`` is
        true once the terminal ``end`` event has been appended; a caller
        resuming past it gets ``([], True)`` immediately instead of waiting
        forever.
        """
        job = self._get(job_id)
        start = after + 1
        with job.events_cond:
            if (
                wait_s is not None
                and len(job.events) <= start
                and not (job.events and job.events[-1]["event"] == "end")
            ):
                job.events_cond.wait(wait_s)
            events = list(job.events[start:])
            ended = bool(job.events) and job.events[-1]["event"] == "end"
        return events, ended

    # ------------------------------------------------------- worker protocol
    def _active_batch(self) -> Optional[_ActiveBatch]:
        with self._work_lock:
            return self._active

    def _reap_batch(self, active: _ActiveBatch) -> None:
        """Expire overdue leases of ``active``; requeue or give up."""
        for lease, fate in active.queue.reap():
            cell_id = lease.item.payload.get("cell_id")
            self._emit(
                active.job,
                "lease",
                {
                    "lease_id": lease.lease_id,
                    "worker": lease.worker_id,
                    "cell_id": cell_id,
                    "state": "expired",
                    "requeued": fate == "requeued",
                },
            )
            self._report(
                f"job {active.job.id}: lease {lease.lease_id} "
                f"(worker {lease.worker_id}, cell {cell_id}) expired -> {fate}"
            )
            if fate == "gave-up":
                record = active.queue.result(lease.item.item_id)
                self._note_cell(active.job, record, "lease-expired")

    def lease_work(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Grant one cell of the running batch to a worker.

        Returns the lease as a JSON-ready dict (``lease_id``, ``kind``,
        the canonical worker ``payload``, ``ttl_s``, and ``deadline_s``:
        seconds after which no heartbeat extends the lease, ``None`` for
        an unbounded cell), or ``None`` when
        nothing is leasable right now — no running batch, or every cell is
        taken (the worker should poll again shortly).
        """
        worker_id = str(worker_id or "anonymous")[:128]
        self._saw_worker(worker_id)
        active = self._active_batch()
        if active is None:
            return None
        lease = active.queue.lease(worker_id, ttl_s=self.lease_ttl_s)
        if lease is None:
            return None
        self._emit(
            active.job,
            "lease",
            {
                "lease_id": lease.lease_id,
                "worker": worker_id,
                "cell_id": lease.item.payload.get("cell_id"),
                "state": "granted",
            },
        )
        return {
            "lease_id": lease.lease_id,
            "job_id": active.job.id,
            "kind": lease.item.exec_kind,
            "cell_id": lease.item.payload.get("cell_id"),
            "payload": lease.item.payload,
            "ttl_s": lease.ttl_s,
            "deadline_s": (
                None
                if lease.deadline is None
                else lease.deadline - lease.granted_at
            ),
            "attempt": lease.item.attempts,
        }

    def heartbeat_work(self, lease_id: str) -> Optional[Dict[str, Any]]:
        """Extend a lease's TTL; ``None`` when the lease is gone/expired."""
        active = self._active_batch()
        if active is None:
            return None
        lease = active.queue.heartbeat(lease_id)
        if lease is None:
            return None
        self._saw_worker(lease.worker_id)
        return {"lease_id": lease.lease_id, "ttl_s": lease.ttl_s}

    def complete_work(self, lease_id: str, record: Any) -> Dict[str, Any]:
        """Accept a pushed result for a leased cell.

        Outcomes mirror :meth:`WorkQueue.complete`, plus ``"rejected"``
        for a malformed record (not a dict, or for the wrong cell).  Only
        the first result per cell is used; duplicates — e.g. a worker that
        lost its lease to a timeout but finished anyway, racing the
        requeued execution — are acknowledged and dropped.
        """
        active = self._active_batch()
        if active is None:
            return {"lease_id": lease_id, "outcome": "gone", "accepted": False}
        if not isinstance(record, dict) or not record:
            return {
                "lease_id": lease_id,
                "outcome": "rejected",
                "accepted": False,
                "error": "the result must be a non-empty cell record object",
            }
        lease = active.queue.peek(lease_id)
        if lease is not None and record.get("cell_id") != lease.item.payload.get(
            "cell_id"
        ):
            # A record for the wrong cell is useless; leave the lease to
            # expire (and the cell to requeue) on its own TTL.
            return {
                "lease_id": lease_id,
                "outcome": "rejected",
                "accepted": False,
                "error": (
                    f"result is for cell {record.get('cell_id')!r} but the "
                    f"lease is for {lease.item.payload.get('cell_id')!r}"
                ),
            }
        # Resolving, caching and reporting happen under one lock, which the
        # dispatcher takes to test for a finished batch and to abort one:
        # a job never finishes before its last cell is cached and reported,
        # nor reports a cell after it finished.
        with self._resolve_lock:
            outcome, lease = active.queue.complete(lease_id, record)
            if outcome == "accepted":
                self.cache.put(lease.item.cache_key, record)
                self._note_cell(active.job, record, f"worker:{lease.worker_id}")
        return {
            "lease_id": lease_id,
            "outcome": outcome,
            "accepted": outcome == "accepted",
        }

    def _run_batch(
        self, job: Job, payloads: List[Dict[str, Any]]
    ) -> List[Optional[Dict[str, Any]]]:
        """Resolve a job's cells: cache first, then leases.

        The one execution step of the server.  Each payload whose cache key
        hits resolves at once; the misses are enqueued as items of the
        job's kind (the spec's ``cell_timeout_s`` bounds each lease, see
        :class:`~repro.server.work.WorkQueue`) and wait for workers to lease
        them.  Every resolved cell is reported once through
        :meth:`_note_cell`.  Returns per-payload records in payload order
        (``None`` only where cancellation aborted the queue first).
        """
        fingerprint = code_fingerprint()
        records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        missing: List[int] = []
        items: List[WorkItem] = []
        for index, payload in enumerate(payloads):
            key = cache_key(payload, fingerprint)
            record = self.cache.get(key)
            if record is not None:
                records[index] = record
                self._note_cell(job, record, "cache")
            else:
                missing.append(index)
                items.append(
                    WorkItem(
                        item_id=f"item-{index:05d}",
                        exec_kind=job.kind,
                        payload=payload,
                        cache_key=key,
                        timeout_s=job.spec.cell_timeout_s,
                    )
                )
        if not items:
            return records
        active = _ActiveBatch(
            job=job,
            queue=WorkQueue(
                items, ttl_s=self.lease_ttl_s, max_attempts=self.max_lease_attempts
            ),
        )
        with self._work_lock:
            self._active = active
        try:
            while not job.cancel.is_set():
                self._reap_batch(active)
                with self._resolve_lock:
                    if active.queue.finished:
                        break
                active.queue.wait(0.2)
        finally:
            with self._work_lock:
                self._active = None
            with self._resolve_lock:  # no cell is reported after this
                active.queue.abort()
        for index, record in zip(missing, active.queue.results_in_order()):
            records[index] = record
        return records

    # ------------------------------------------------------------ submission
    def submit(self, kind: str, spec_dict: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and enqueue one job; returns its status snapshot.

        Raises :class:`~repro.engine.errors.ConfigurationError` for an
        unknown kind or an invalid spec — the HTTP layer maps that to a
        400 with the validation message.
        """
        job_kind = KINDS.get(kind)
        if job_kind is None:
            raise ConfigurationError(
                f"unknown job kind {kind!r}; expected one of {tuple(KINDS)}"
            )
        if not isinstance(spec_dict, dict):
            raise ConfigurationError("the job spec must be a JSON object")
        spec = job_kind.spec_class().from_dict(spec_dict)
        with self._lock:
            self._seq += 1
            name = _ID_SANITISER.sub("-", str(spec.name)) or "unnamed"
            job_id = f"{kind}-{self._seq:04d}-{name}"
            job = Job(job_id, kind, spec, spec.to_dict())
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._emit(job, "job", {"state": "queued", "total_cells": job.total_cells})
        self._queue.put(job_id)
        self._report(f"job {job_id}: queued ({job.total_cells} cells)")
        return self.status(job_id)

    # ---------------------------------------------------------------- access
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """A JSON-ready snapshot of one job's state and per-cell progress."""
        job = self._get(job_id)
        with self._lock:
            cells = dict(job.cells)
            progress = {
                "total_cells": job.total_cells,
                "completed_cells": job.cached + job.executed,
                "cached_cells": job.cached,
                "executed_cells": job.executed,
                "remote_cells": job.remote,
                "failed_cells": sorted(
                    cell_id for cell_id, state in cells.items() if state == "failed"
                ),
                "cells": cells,
            }
            return {
                "job_id": job.id,
                "kind": job.kind,
                "name": job.spec.name,
                "state": job.state,
                "cancel_requested": job.cancel.is_set(),
                "submitted_unix": job.submitted_unix,
                "started_unix": job.started_unix,
                "finished_unix": job.finished_unix,
                "error": job.error,
                "progress": progress,
            }

    def jobs(self) -> List[Dict[str, Any]]:
        """Status snapshots of every job, in submission order."""
        with self._lock:
            order = list(self._order)
        return [self.status(job_id) for job_id in order]

    def counts(self) -> Dict[str, int]:
        """Job counts per state (for ``/healthz``)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def artifact(self, job_id: str) -> Dict[str, Any]:
        """The finished document of a done job.

        Raises :class:`JobNotReady` while the job is queued/running and for
        failed or cancelled jobs (their error travels in the status).
        """
        job = self._get(job_id)
        with self._lock:
            if job.state != "done" or job.document is None:
                raise JobNotReady(job_id, job.state)
            return job.document

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; immediate for queued jobs.

        A running job's queue is aborted: its pending cells are never
        leased, while cells already in flight finish on their workers.
        Already-finished jobs are left untouched.
        """
        job = self._get(job_id)
        with self._lock:
            if job.state in _TERMINAL_STATES:
                return {"job_id": job.id, "state": job.state, "cancelled": False}
            job.cancel.set()
            if job.state == "queued":
                self._finish(job, "cancelled", "cancelled while queued")
                self._report(f"job {job.id}: cancelled while queued")
                return {"job_id": job.id, "state": job.state, "cancelled": True}
        self._report(f"job {job.id}: cancellation requested")
        return {"job_id": job.id, "state": "running", "cancelled": True}

    # ------------------------------------------------------------ dispatcher
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            job = self._jobs.get(job_id)
            if job is None:
                continue
            with self._lock:
                if job.state != "queued" or self._stop.is_set():
                    continue  # cancelled while waiting, or shutting down
                job.state = "running"
                job.started_unix = time.time()
            self._emit(job, "job", {"state": "running"})
            self._report(f"job {job.id}: running")
            try:
                self._run_grid_job(job)
            except Exception:  # noqa: BLE001 - job must fail, not the server
                self._finish(job, "failed", traceback.format_exc())
                self._report(f"job {job.id}: FAILED (internal error)")

    def _note_cell(self, job: Job, record: Dict[str, Any], source: str) -> None:
        """Count one resolved cell and emit its ``cell`` event.

        ``source`` says where the record came from: ``"cache"``,
        ``"worker:<id>"``, or ``"lease-expired"`` (the synthetic record of
        a cell whose leases kept expiring).
        """
        cached = source == "cache"
        state = "cached" if cached else "failed" if record.get("error") else "done"
        with self._lock:
            cell_id = record.get("cell_id")
            if cell_id in job.cells:
                job.cells[cell_id] = state
            if cached:
                job.cached += 1
            else:
                job.executed += 1
            if source.startswith("worker:"):
                job.remote += 1
            completed = job.cached + job.executed
        self._emit(
            job,
            "cell",
            {
                "cell_id": cell_id,
                "state": state,
                "source": source,
                "completed": completed,
                "total": job.total_cells,
            },
        )

    def _run_grid_job(self, job: Job) -> None:
        spec = job.spec
        runner = KINDS[job.kind].runner_class()(spec)
        records = self._run_batch(job, runner.payloads(spec.cells()))
        if job.cancel.is_set():
            self._finish(
                job,
                "cancelled",
                f"cancelled after {job.executed} of "
                f"{len(records) - job.cached} pending cells ran",
            )
            self._report(f"job {job.id}: cancelled")
            return
        if job.cached:
            self._report(
                f"job {job.id}: {job.cached} of {len(records)} cells "
                f"served from cache"
            )
        document = build_document(spec, records, self.attached_workers())
        with self._lock:
            job.document = document
        self._finish(job, "done")
        failed = document.get("failed_cells") or []
        self._report(
            f"job {job.id}: done ({len(records)} cells, {job.cached} cached, "
            f"{job.remote} remote, {len(failed)} failed)"
        )

