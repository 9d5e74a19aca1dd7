"""The lease table behind the worker pull protocol.

One :class:`WorkQueue` holds the cache misses of one job awaiting
execution: its pending cells.  Its only consumers are ``repro-worker``
processes, whether ``repro-serve`` spawned them or they attached from
another host: each holds one item at a time (:meth:`WorkQueue.lease`),
heartbeats while executing, and pushes a result back
(:meth:`WorkQueue.complete`) in the same HTTP request that leases its next
item.

Workers can die without warning — that is the whole point of the
protocol — so every lease carries a TTL.  A lease whose worker stops
heartbeating past its deadline is *expired* by :meth:`WorkQueue.reap` and
its item is requeued for someone else (at-least-once semantics; results
are deduplicated first-wins per item, and identical payloads replay for
free through the content-addressed result cache anyway).  An item whose
leases keep expiring is eventually given up on with a synthetic error
record, so one black-hole worker cannot wedge a job forever.

A cell that hangs while its worker keeps heartbeating is the cell's fault,
not the worker's: once ``cell_timeout_s + CELL_DEADLINE_GRACE_S`` has
passed since the grant, :meth:`WorkQueue.heartbeat` stops extending the
lease, and when that lease expires its item is given up at once rather
than requeued onto the next worker.

Everything is guarded by a single condition variable; completions and
requeues notify it, which is what lets the dispatcher sleep while workers
grind and wake the moment the batch finishes.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Lease", "WorkItem", "WorkQueue", "failure_record"]

#: Grace past an item's ``timeout_s`` before heartbeats stop extending its
#: lease, so the worker's own timeout record (which keeps the runs that
#: finished) wins whenever the cell can still stop by itself.
CELL_DEADLINE_GRACE_S = 30.0


@dataclass
class WorkItem:
    """One executable cell: a worker payload plus routing metadata.

    ``item_id`` is unique within its queue, which keys results on it.
    ``exec_kind`` names the worker entry point — ``"sweep"`` for
    :func:`~repro.experiments.runner.execute_cell`, ``"scenario"`` for
    :func:`~repro.scenarios.runner.execute_scenario_cell` — which is how a
    remote worker knows what to run.
    ``cache_key`` is the content address the result is stored under.
    ``timeout_s`` is the cell's own wall-time budget (``cell_timeout_s`` of
    its spec; ``None``: unbounded), which bounds how long one lease may be
    kept alive.
    """

    item_id: str
    exec_kind: str
    payload: Dict[str, Any]
    cache_key: str
    timeout_s: Optional[float] = None
    attempts: int = 0


@dataclass
class Lease:
    """One grant of one item to one worker, with a TTL and a hard deadline.

    ``expires_at`` moves with every heartbeat; ``deadline`` (``None`` for an
    item without a timeout) is fixed at grant time and no heartbeat extends
    the lease past it.
    """

    lease_id: str
    item: WorkItem
    worker_id: str
    ttl_s: float
    granted_at: float
    expires_at: float
    deadline: Optional[float] = None
    state: str = "active"
    completed_at: Optional[float] = None


def failure_record(payload: Dict[str, Any], error: str) -> Dict[str, Any]:
    """The failed record of a cell that produced none of its own.

    Used for cells given up after repeated lease expiry and for executions
    that raised on a worker.  The same shape
    :class:`~repro.experiments.runner.PoolExecutor` synthesises for lost
    tasks, so artifact consumers see one failure vocabulary.
    """
    return {
        "cell_id": payload.get("cell_id"),
        "n": payload.get("n"),
        "params": payload.get("params"),
        "seeds": payload.get("seeds"),
        "runs": [],
        "stats": None,
        "error": error,
        "wall_time_s": None,
    }


class WorkQueue:
    """One batch of work items, drained one lease at a time.

    Args:
        items: The batch, in result order.
        ttl_s: Default lease time-to-live; heartbeats extend it by the
            lease's own TTL each time.
        max_attempts: How many times one item may be *leased* before an
            expiry gives up on it with a synthetic error record.
        clock: Monotonic time source (test seam).
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        items: List[WorkItem],
        ttl_s: float = 60.0,
        max_attempts: int = 5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.ttl_s = ttl_s
        self.max_attempts = max_attempts
        self._clock = clock
        self._cond = threading.Condition()
        self._items = list(items)
        self._pending: List[WorkItem] = list(items)
        self._leases: Dict[str, Lease] = {}
        self._results: Dict[str, Dict[str, Any]] = {}
        self._aborted = False
        self.requeues = 0

    # ------------------------------------------------------------ inspection
    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def finished(self) -> bool:
        """All items resolved (every item has a result), or aborted."""
        with self._cond:
            return self._aborted or len(self._results) == len(self._items)

    def result(self, item_id: str) -> Optional[Dict[str, Any]]:
        with self._cond:
            return self._results.get(item_id)

    def results_in_order(self) -> List[Optional[Dict[str, Any]]]:
        """Per-item records in submission order (``None`` where unresolved)."""
        with self._cond:
            return [self._results.get(item.item_id) for item in self._items]

    def snapshot(self) -> Dict[str, Any]:
        """Live counts for metrics collectors and progress endpoints."""
        with self._cond:
            per_worker: Dict[str, int] = {}
            for lease in self._leases.values():
                if lease.state == "active":
                    per_worker[lease.worker_id] = (
                        per_worker.get(lease.worker_id, 0) + 1
                    )
            return {
                "items": len(self._items),
                "pending": len(self._pending),
                "resolved": len(self._results),
                "active_leases": per_worker,
                "requeues": self.requeues,
            }

    # -------------------------------------------------------------- leases
    def lease(self, worker_id: str, ttl_s: Optional[float] = None) -> Optional[Lease]:
        """Grant the oldest pending item to ``worker_id``, or ``None``."""
        ttl = self.ttl_s if ttl_s is None else ttl_s
        with self._cond:
            if self._aborted or not self._pending:
                return None
            item = self._pending.pop(0)
            item.attempts += 1
            now = self._clock()
            lease = Lease(
                lease_id=f"lease-{next(self._ids):06d}-{uuid.uuid4().hex[:8]}",
                item=item,
                worker_id=worker_id,
                ttl_s=ttl,
                granted_at=now,
                expires_at=now + ttl,
                deadline=(
                    None
                    if item.timeout_s is None
                    else now + item.timeout_s + CELL_DEADLINE_GRACE_S
                ),
            )
            self._leases[lease.lease_id] = lease
            return lease

    def peek(self, lease_id: str) -> Optional[Lease]:
        """The lease with this id, in whatever state, or ``None``."""
        with self._cond:
            return self._leases.get(lease_id)

    def heartbeat(self, lease_id: str) -> Optional[Lease]:
        """Extend an active lease by its TTL; ``None`` if that is refused.

        Refused for a lease that is gone, already expired — its item may be
        in someone else's hands — or past its ``deadline``: a runaway cell
        then expires at its TTL and is given up (see :meth:`reap`).  The
        original worker may still push its result (see :meth:`complete`);
        it just can no longer *reserve* the item.
        """
        with self._cond:
            lease = self._leases.get(lease_id)
            if lease is None or lease.state != "active" or self._aborted:
                return None
            now = self._clock()
            if lease.deadline is not None and now >= lease.deadline:
                return None
            lease.expires_at = now + lease.ttl_s
            return lease

    def complete(
        self, lease_id: str, record: Dict[str, Any]
    ) -> Tuple[str, Optional[Lease]]:
        """Accept a remote result; returns ``(outcome, lease)``.

        Outcomes: ``"accepted"`` (first result for the item — even from an
        *expired* lease, as long as nobody else resolved the item first),
        ``"duplicate"`` (item already resolved; the record is discarded),
        ``"gone"`` (queue aborted), ``"unknown"`` (no such lease).
        First-wins is the whole dedup story: at-least-once execution plus
        idempotent, content-addressed records.
        """
        with self._cond:
            lease = self._leases.get(lease_id)
            if lease is None:
                return "unknown", None
            if self._aborted:
                return "gone", lease
            item = lease.item
            if lease.state != "completed":
                lease.state = "completed"
                lease.completed_at = self._clock()
            if item.item_id in self._results:
                return "duplicate", lease
            # The item may have been requeued after this lease expired and
            # be sitting in pending: claim it back.
            self._pending = [p for p in self._pending if p.item_id != item.item_id]
            self._results[item.item_id] = record
            self._cond.notify_all()
            return "accepted", lease

    # ------------------------------------------------------------ lifecycle
    def reap(self) -> List[Tuple[Lease, str]]:
        """Expire overdue leases; requeue their items or give up.

        Returns each expired lease with what became of its item:
        ``"requeued"``, ``"gave-up"`` (a synthetic error record is now its
        :meth:`result`) or ``"settled"`` (already resolved or pending).  An
        item is given up once it has been leased ``max_attempts`` times, or
        at once when the lease outlived its ``deadline`` — a runaway cell
        would only hang the next worker too.
        """
        now = self._clock()
        expired: List[Tuple[Lease, str]] = []
        with self._cond:
            if self._aborted:
                return []
            for lease in self._leases.values():
                if lease.state != "active" or now < lease.expires_at:
                    continue
                lease.state = "expired"
                item = lease.item
                if item.item_id in self._results or any(
                    p.item_id == item.item_id for p in self._pending
                ):
                    expired.append((lease, "settled"))
                elif lease.deadline is not None and now >= lease.deadline:
                    self._results[item.item_id] = failure_record(
                        item.payload,
                        f"cell overran its deadline (timeout_s "
                        f"{item.timeout_s:g} + {CELL_DEADLINE_GRACE_S:g} s "
                        f"grace) on worker {lease.worker_id!r}; giving up",
                    )
                    expired.append((lease, "gave-up"))
                elif item.attempts >= self.max_attempts:
                    self._results[item.item_id] = failure_record(
                        item.payload,
                        f"lease expired {item.attempts} time(s) (worker "
                        f"{lease.worker_id!r} lost); giving up",
                    )
                    expired.append((lease, "gave-up"))
                else:
                    self._pending.append(item)
                    self.requeues += 1
                    expired.append((lease, "requeued"))
            if expired:
                self._cond.notify_all()
        return expired

    def abort(self) -> None:
        """Stop handing out work; late results are answered ``"gone"``."""
        with self._cond:
            self._aborted = True
            self._pending = []
            self._cond.notify_all()

    def wait(self, timeout_s: float) -> None:
        """Block until something changes (completion/requeue/abort)."""
        with self._cond:
            if self._aborted or len(self._results) == len(self._items):
                return
            self._cond.wait(timeout_s)
