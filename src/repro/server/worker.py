"""``repro-worker``: the execution process of the job server.

The other half of the pull protocol (see :mod:`repro.server.app` and
:class:`~repro.server.work.WorkQueue`): a stdlib-only process that

1. takes the lease the server handed over with its last push, or, when it
   has none (its first cell, after a batch ended, while idle), polls
   ``POST /work/lease`` until the server hands it a cell of the currently
   running batch (the canonical worker payload — the same JSON
   ``repro-sweep``'s pool pickles),
2. executes it with the same entry point that pool uses
   (:func:`repro.kinds.executor`: the ``executor`` of the lease kind's
   runner, ``execute_cell`` for sweep cells and ``execute_scenario_cell``
   for scenario cells, imported on the first lease of that kind), while
   the worker's one heartbeat thread keeps the lease alive,
3. pushes the record back via ``POST /work/<lease>/result?next=<id>``,
   whose reply carries the next lease, and loops.

A busy worker thus makes one request per cell, on a connection it keeps
alive.  A server that sends no ``next`` leaves the worker polling.

Every cell the server executes goes through a worker like this one:
``repro-serve --workers N`` spawns N of them against its own URL (through
:class:`WorkerProcess`), and any number more can attach from other hosts.
Dying is safe by design: a worker that is SIGKILLed mid-cell simply stops
heartbeating, the server expires the lease at its TTL and requeues the
cell, and should the zombie somehow finish anyway, its late push is
deduplicated first-wins.  Results land in the server's content-addressed
cache under one key whichever worker ran them, so the artifact is
identical either way.

A cell that raises locally is pushed back as a failed record
(:func:`~repro.server.work.failure_record`) rather than swallowed — the
server should learn the cell is poisoned now, not after
``max_lease_attempts`` TTLs.  A cell that hangs past its lease's
``deadline_s`` has already been given up by the server, and nothing can
interrupt it in-process, so a ``repro-worker`` process then exits (status
3) rather than stay wedged; ``repro-serve`` respawns the workers it
spawned.
"""

from __future__ import annotations

import argparse
import collections
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Callable, Deque, Dict, List, Optional

from ..fingerprint import PACKAGE_VERSION, code_fingerprint
from ..kinds import KINDS, executor
from .client import ReproClient, ServerError
from .work import failure_record

__all__ = ["Worker", "WorkerProcess", "execute_lease", "main"]

#: Heartbeats per lease TTL; 3 gives two retries' worth of slack before
#: the server declares the worker dead.
HEARTBEATS_PER_TTL = 3.0

#: Floor on the heartbeat interval so a tiny test TTL cannot spin.
MIN_HEARTBEAT_S = 0.05

#: The first sleep after a push before polling for the next lease; it
#: doubles with each empty poll up to the worker's ``poll_s``.
FIRST_POLL_S = 0.01

#: How often a worker spawned by ``repro-serve`` checks that its server is
#: still its parent process.
PARENT_CHECK_S = 0.5

#: Exit status of a ``repro-worker`` that dropped a cell overrunning its
#: deadline.
OVERRUN_EXIT_STATUS = 3

#: Output lines a :class:`WorkerProcess` keeps for diagnostics.
LOG_LINES = 1000


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per process, stable for its lifetime."""
    return f"{socket.gethostname()}-{os.getpid()}"


def execute_lease(lease: Dict[str, Any]) -> Dict[str, Any]:
    """Run one leased cell with its kind's executor (:func:`repro.kinds.executor`).

    Never raises: an unknown ``kind`` or a crashing executor comes back as
    a failed record (the server wants *an answer* for the lease; silence
    just burns a TTL).
    """
    payload = lease.get("payload") or {}
    kind = lease.get("kind")
    try:
        if kind not in KINDS:
            return failure_record(
                payload,
                f"worker does not understand lease kind {kind!r} "
                f"(knows {tuple(KINDS)})",
            )
        return executor(kind)(payload)
    except Exception:  # noqa: BLE001 - the record carries the traceback
        return failure_record(payload, traceback.format_exc())


class _Heartbeat:
    """Keep the lease in hand alive from one daemon thread per worker.

    :meth:`begin` hands the thread a lease when its cell starts and
    :meth:`end` takes it back when the cell ends; in between the thread
    heartbeats it every TTL/:data:`HEARTBEATS_PER_TTL`.  A 404 marks the
    lease lost (see :meth:`end`); transport trouble is retried at the next
    beat.
    Once the lease's ``deadline_s`` has passed with the cell still
    running, the server no longer extends the lease and gives the cell
    up; the thread then calls ``on_overrun`` (if any) with the lease.
    """

    def __init__(
        self,
        client: ReproClient,
        on_overrun: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self._client = client
        self._on_overrun = on_overrun
        self._cond = threading.Condition()
        self._lease: Optional[Dict[str, Any]] = None
        self._interval = 0.0
        self._next_beat = 0.0
        self._deadline: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._lost = False
        self._beating = False  # a heartbeat request is out

    def begin(self, lease: Dict[str, Any]) -> None:
        """Heartbeat ``lease`` until :meth:`end`."""
        now = time.monotonic()
        ttl = float(lease.get("ttl_s") or 60.0)
        deadline_s = lease.get("deadline_s")
        with self._cond:
            self._lease = lease
            self._lost = False
            self._interval = max(MIN_HEARTBEAT_S, ttl / HEARTBEATS_PER_TTL)
            self._next_beat = now + self._interval
            self._deadline = (
                None
                if deadline_s is None or self._on_overrun is None
                else now + float(deadline_s)
            )
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="heartbeat", daemon=True
                )
                self._thread.start()
            self._cond.notify()

    def end(self) -> bool:
        """Stop heartbeating the lease in hand; whether it was lost.

        A heartbeat still out is waited for (at most the client's timeout),
        so a 404 it brings back still counts.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: not self._beating, timeout=self._client.timeout_s
            )
            self._lease = None
            self._cond.notify()
            return self._lost

    def close(self) -> None:
        """End the thread (it holds no lease by now); :meth:`begin` starts
        a new one."""
        with self._cond:
            thread, self._thread = self._thread, None
            self._cond.notify()
        if thread is not None:
            thread.join(timeout=2.0)

    def _run(self) -> None:
        me = threading.current_thread()
        with self._cond:
            while self._thread is me:
                lease = self._lease
                if lease is None:
                    self._cond.wait()
                    continue
                now = time.monotonic()
                due = self._next_beat
                if self._deadline is not None:
                    due = min(due, self._deadline)
                if now < due:
                    self._cond.wait(due - now)
                    continue
                if self._deadline is not None and now >= self._deadline:
                    self._deadline = None  # overrun fires once per lease
                    self._cond.release()
                    try:
                        self._on_overrun(lease)
                    finally:
                        self._cond.acquire()
                    continue
                self._next_beat = now + self._interval
                if self._lost:
                    continue  # only waiting for the deadline now
                self._beating = True
                self._cond.release()
                try:
                    self._client.heartbeat(lease["lease_id"])
                    gone = False
                except ServerError as error:
                    # 404: expired (or the batch ended).  The cell finishes
                    # and is pushed anyway: an unresolved item still accepts
                    # the first result, even from an expired lease.  Any
                    # other failure is retried at the next beat.
                    gone = error.status == 404
                finally:
                    self._cond.acquire()
                    self._beating = False
                    self._cond.notify()  # an end() may be waiting
                if gone and self._lease is lease:
                    self._lost = True


class Worker:
    """The lease → execute → push loop of one ``repro-worker`` process.

    Args:
        client: Connection to the server.
        worker_id: Identity reported with every lease (shows up in the
            ``source`` of the job's ``cell`` events and in its ``lease``
            events).
        poll_s: Sleep between empty lease polls (shorter for the first
            few polls after a push, see :data:`FIRST_POLL_S`).
        max_idle_s: Exit once this long passes without the server granting
            a lease *and* without it being reachable trouble-free
            (``None``: run until killed — the systemd/daemon mode).
        progress: Line-oriented log callback (``None``: silent).
        on_overrun: Called from the heartbeat thread with the lease of a
            cell still running past its ``deadline_s`` (``None``: let it
            run).  :func:`main` exits the process there.
    """

    def __init__(
        self,
        client: ReproClient,
        worker_id: Optional[str] = None,
        poll_s: float = 0.2,
        max_idle_s: Optional[float] = None,
        progress: Optional[Any] = None,
        on_overrun: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.progress = progress
        self.executed = 0
        self.accepted = 0
        self._stop = threading.Event()
        self._heartbeat = _Heartbeat(client, on_overrun)
        # The lease the server handed over with the last push, if any.
        self._next: Optional[Dict[str, Any]] = None

    def stop(self) -> None:
        """Make :meth:`run` return once the cell in hand (if any) is pushed."""
        self._stop.set()

    def _report(self, line: str) -> None:
        if self.progress:
            self.progress(f"repro-worker {self.worker_id}: {line}")

    def run_one(self) -> bool:
        """Execute and push one cell; False when none was granted.

        The cell is the lease the previous push handed over, else one
        ``POST /work/lease`` grants.  The push also asks for the next
        lease, unless the worker is stopping (see :meth:`stop`).
        """
        lease, self._next = self._next, None
        if lease is None:
            lease = self.client.lease(self.worker_id)
            if lease is None:
                return False
        # Announce *before* executing: the distributed smoke kills a worker
        # on this line to prove mid-cell death is survivable.
        self._report(
            f"leased {lease['lease_id']} cell {lease.get('cell_id')} "
            f"(kind {lease.get('kind')}, attempt {lease.get('attempt')})"
        )
        self._heartbeat.begin(lease)
        try:
            record = execute_lease(lease)
        finally:
            lost = self._heartbeat.end()
        self.executed += 1
        ask = not self._stop.is_set()
        outcome = self.client.push_result(
            lease["lease_id"], record, next_worker=self.worker_id if ask else None
        )
        self._next = outcome.get("next")
        if outcome.get("accepted"):
            self.accepted += 1
        self._report(
            f"pushed {lease['lease_id']} -> {outcome.get('outcome')}"
            + (" (lease had expired)" if lost else "")
        )
        return True

    def run(self) -> int:
        """Loop until idle timeout (if any) or :meth:`stop`; returns cells
        executed."""
        fingerprint = code_fingerprint()
        self._report(
            f"polling {self.client.base_url} "
            f"(version {PACKAGE_VERSION}, fingerprint {fingerprint[:12]})"
        )
        try:
            return self._loop()
        finally:
            self._heartbeat.close()

    def _loop(self) -> int:
        idle_s = 0.0
        sleep_s = self.poll_s
        while not self._stop.is_set():
            try:
                worked = self.run_one()
            except ServerError as error:
                if error.status != 0:
                    # The server answered with an error we cannot fix by
                    # retrying the same request (bad route/version skew).
                    self._report(f"giving up: {error}")
                    raise
                worked = False  # unreachable: poll again, count as idle
            if worked:
                # A push may have finished its job, and the dispatcher
                # publishes the next queued job's cells moments later:
                # poll again soon, and back off to poll_s from there.
                idle_s = 0.0
                sleep_s = min(self.poll_s, FIRST_POLL_S)
                continue
            idle_s += sleep_s
            if self.max_idle_s is not None and idle_s >= self.max_idle_s:
                self._report(
                    f"idle for {idle_s:.1f}s, exiting "
                    f"({self.executed} cells executed, {self.accepted} accepted)"
                )
                return self.executed
            self._stop.wait(sleep_s)
            sleep_s = min(self.poll_s, 2.0 * sleep_s)
        return self.executed


def main(argv: Optional[Any] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Pull cells from a repro-serve instance over HTTP, execute them "
            "locally, and push the results back."
        ),
    )
    parser.add_argument(
        "--server",
        default="http://127.0.0.1:8765",
        help="base URL of the repro-serve instance (default %(default)s)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="identity reported to the server (default <hostname>-<pid>)",
    )
    parser.add_argument(
        "--poll-s",
        type=float,
        default=0.2,
        help="sleep between empty lease polls (default %(default)s)",
    )
    parser.add_argument(
        "--max-idle-s",
        type=float,
        default=None,
        help=(
            "exit after this long without work (default: run until killed)"
        ),
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=30.0,
        help="per-request HTTP timeout (default %(default)s)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-lease log lines"
    )
    args = parser.parse_args(argv)

    def progress(line: str) -> None:
        print(line, flush=True)

    def overrun(lease: Dict[str, Any]) -> None:
        print(
            f"repro-worker: cell {lease.get('cell_id')} ran past its "
            f"{lease.get('deadline_s'):g} s deadline and was given up; "
            f"exiting to drop it",
            file=sys.stderr,
            flush=True,
        )
        os._exit(OVERRUN_EXIT_STATUS)

    worker = Worker(
        ReproClient(args.server, timeout_s=args.timeout_s),
        worker_id=args.worker_id,
        poll_s=args.poll_s,
        max_idle_s=args.max_idle_s,
        progress=None if args.quiet else progress,
        on_overrun=overrun,
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    except ServerError as error:
        print(f"repro-worker: {error}", file=sys.stderr, flush=True)
        return 1
    return 0


def _spawned_main(parent_pid: int, argv: List[str]) -> int:
    """:func:`main` for a worker ``repro-serve`` spawned.

    Exits as soon as ``parent_pid`` stops being this process's parent, so
    the worker never outlives its server — not even a SIGKILLed one, whose
    orphans are re-parented.
    """

    def watch_parent() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_CHECK_S)
        os._exit(0)

    threading.Thread(target=watch_parent, name="parent-watch", daemon=True).start()
    return main(argv)


class WorkerProcess:
    """One ``repro-worker`` subprocess with a drained, watched log.

    With ``exit_with_parent`` the child runs :func:`_spawned_main`, so it
    exits with the process that spawned it, and gets a session of its own,
    so a Ctrl-C at the terminal reaches only that process, which then stops
    it; without, it is a plain ``repro-worker``.  :attr:`started` is the
    monotonic spawn time.  Every output line is kept in :attr:`log` (the
    last :data:`LOG_LINES`) and handed to ``echo``; :attr:`leased` is set on
    the first "leased" line, which the worker prints *before* executing
    the cell.
    """

    def __init__(
        self,
        base_url: str,
        worker_id: str,
        exit_with_parent: bool = False,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.log: Deque[str] = collections.deque(maxlen=LOG_LINES)
        self.leased = threading.Event()
        self._echo = echo
        if exit_with_parent:
            entry = [
                "-c",
                "import sys; from repro.server.worker import _spawned_main; "
                f"sys.exit(_spawned_main({os.getpid()}, sys.argv[1:]))",
            ]
        else:
            entry = ["-m", "repro.server.worker"]
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, *entry, "--server", base_url, "--worker-id", worker_id],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=exit_with_parent,
        )
        threading.Thread(target=self._watch, daemon=True).start()

    def _watch(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.log.append(line)
            if self._echo is not None:
                self._echo(line.rstrip("\n"))
            if " leased " in line:
                self.leased.set()

    def stop(self) -> None:
        """Terminate the process (kill it if it lingers) and reap it."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15)


if __name__ == "__main__":
    raise SystemExit(main())
