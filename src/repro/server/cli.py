"""``repro-serve``: run the simulation job server.

Examples::

    repro-serve                          # 127.0.0.1:8765, all cores
    repro-serve --port 0 --workers 2     # ephemeral port, two workers
    repro-serve --remote-only            # schedule only; workers attach
    curl -s localhost:8765/healthz

The server executes nothing in its own process.  Once bound it announces
its address on stdout (``repro-serve listening on http://HOST:PORT``) —
with ``--port 0`` that line is how scripts learn the ephemeral port — and
spawns ``--workers`` ``repro-worker`` processes that lease cells from its
own URL, like any worker on another host would.  A spawned worker that
exits while the server runs is respawned, unless it keeps exiting within
seconds of its start (a broken install, a server it cannot talk to).
Ctrl-C and SIGTERM shut down cleanly: the spawned workers (which sit in
sessions of their own, out of the terminal's reach) are stopped, then the
HTTP loop and the dispatcher; should the server die without that chance,
each spawned worker notices it lost its parent and exits.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import Callable, List, Optional

from ..engine.errors import ReproError
from ..fingerprint import PACKAGE_VERSION, code_fingerprint
from .app import make_server
from .cache import ResultCache
from .jobs import JobManager
from .worker import WorkerProcess

__all__ = ["main", "build_parser"]

#: How often the server looks for spawned workers that exited.
RESPAWN_CHECK_S = 0.5

#: A spawned worker exiting sooner than this after its spawn exits "fast".
FAST_EXIT_S = 10.0

#: Fast exits in a row after which a worker is no longer respawned.
MAX_FAST_EXITS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve sweep/scenario jobs over HTTP with a "
            "content-addressed result cache."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: %(default)s; loopback only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="port to bind; 0 picks an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "repro-worker processes to spawn against this server "
            "(default: all cores)"
        ),
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        help="result-cache capacity in cell records (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist the result cache as <key>.json files in this directory "
            "(created if missing); a restarted server serves identical "
            "resubmissions from disk (default: in-memory only)"
        ),
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help=(
            "LRU bytes budget for the on-disk cache; least-recently-used "
            "entry files are deleted once exceeded (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        help=(
            "work-lease time-to-live; a repro-worker that stops "
            "heartbeating for this long is presumed dead and its cell is "
            "requeued (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--remote-only",
        action="store_true",
        help=(
            "spawn no workers; every cell waits for an external repro-worker "
            "to lease it (pure scheduler mode)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request and per-job log lines",
    )
    return parser


class LocalWorkers:
    """The ``repro-worker`` processes a server spawns against its own URL.

    A supervisor thread respawns, under the same worker id, any of them
    that exits before :meth:`stop` — but gives up on one (saying so once)
    after :data:`MAX_FAST_EXITS` exits in a row within :data:`FAST_EXIT_S`
    of their spawn, since respawning those would only spin.
    """

    def __init__(
        self, base_url: str, count: int, report: Callable[[str], None]
    ) -> None:
        self._base_url = base_url
        self._report = report
        self._stop = threading.Event()
        self.workers = [self._spawn(f"local-{index}") for index in range(1, count + 1)]
        self._thread = threading.Thread(
            target=self._supervise, name="repro-local-workers", daemon=True
        )
        self._thread.start()

    def _spawn(self, worker_id: str) -> WorkerProcess:
        worker = WorkerProcess(
            self._base_url, worker_id, exit_with_parent=True, echo=self._report
        )
        self._report(f"repro-serve: spawned worker {worker_id} (pid {worker.process.pid})")
        return worker

    def _supervise(self) -> None:
        fast_exits = [0] * len(self.workers)
        while not self._stop.wait(RESPAWN_CHECK_S):
            for index, worker in enumerate(self.workers):
                code = worker.process.poll()
                if code is None or fast_exits[index] >= MAX_FAST_EXITS:
                    continue
                if self._stop.is_set():
                    return
                fast = time.monotonic() - worker.started < FAST_EXIT_S
                fast_exits[index] = fast_exits[index] + 1 if fast else 0
                if fast_exits[index] >= MAX_FAST_EXITS:
                    self._report(
                        f"repro-serve: worker {worker.worker_id} exited ({code}) "
                        f"within {FAST_EXIT_S:g} s of its start "
                        f"{MAX_FAST_EXITS} times in a row; not respawning it"
                    )
                    continue
                self._report(
                    f"repro-serve: worker {worker.worker_id} exited "
                    f"({code}); respawning"
                )
                self.workers[index] = self._spawn(worker.worker_id)

    def stop(self) -> None:
        """Stop supervising, then stop and reap every worker."""
        self._stop.set()
        self._thread.join(timeout=10.0)
        for worker in self.workers:
            worker.stop()


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    workers = 0 if args.remote_only else (
        args.workers if args.workers is not None else os.cpu_count() or 1
    )
    if workers < 0:
        print("error: --workers must not be negative", file=sys.stderr)
        return 2
    try:
        manager = JobManager(
            cache=ResultCache(
                max_entries=args.cache_entries,
                cache_dir=args.cache_dir,
                max_disk_bytes=args.cache_max_bytes,
            ),
            progress=progress,
            lease_ttl_s=args.lease_ttl_s,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server = make_server(args.host, args.port, manager, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(version {PACKAGE_VERSION}, fingerprint {code_fingerprint()}, "
        f"{workers} local worker(s))",
        flush=True,
    )
    # SIGTERM takes the same clean path as Ctrl-C.
    signal.signal(signal.SIGTERM, _interrupt)
    # Spawned workers reach a wildcard-bound server over loopback.
    local_host = "127.0.0.1" if host in ("", "0.0.0.0") else host
    local = None
    try:
        local = LocalWorkers(
            f"http://{local_host}:{port}", workers, progress or (lambda line: None)
        )
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        if local is not None:
            local.stop()
        server.server_close()
        manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
