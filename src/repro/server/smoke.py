"""End-to-end smoke for the job server; the CI demo.

Two modes, both booting real ``repro-serve`` subprocesses on ephemeral
ports and asserting the service contract from outside.  Both submit the
``counting-smoke`` builtin sweep (:data:`SWEEP`).

**Single-host mode** (default) boots the server over ``--cache-dir`` with
:data:`WORKERS` spawned workers and submits the sweep **twice**:

* the first job computes every cell on the ``repro-worker`` processes the
  server spawned — each one leased (``remote_cells == executed_cells ==
  grid``), since leasing is the server's only way to execute — and a live
  ``/jobs/<id>/events`` stream opened at submission delivers at least one
  ``cell`` event per grid cell, in strictly increasing sequence order,
  with the ``end`` event last,
* the server is **restarted** over the same cache directory, and the
  second identical job is served *entirely* from the result cache
  (``executed_cells == 0``, ``disk_loads >= grid``), which proves the
  on-disk cache, not process memory,
* both served artifacts agree under
  :func:`~repro.server.cache.stable_document`,
* and, with ``--compare``, the served artifact equals the document the
  batch CLI wrote for the same spec — cache, server, and CLI are three
  routes to one byte-identical (modulo timestamps) result.

**Distributed mode** (``--distributed``) boots the server with
``--remote-only`` (it spawns no workers of its own) and a lease TTL of
:data:`LEASE_TTL_S`, attaches two external ``repro-worker`` subprocesses,
submits the sweep once, and SIGKILLs the first worker the moment it
announces a lease — mid-cell, by construction.  The job must still
complete: the dead worker's lease expires at its TTL, the cell is
requeued, and the surviving worker finishes it.  The finished job's
replayed event log must show the expiry, the requeue and a cell from the
survivor, and the served artifact must equal the single-host CLI artifact
modulo volatile keys.

Usage (CI runs exactly these)::

    python -m repro.server.smoke \\
        --cache-dir reports/smoke-cache \\
        --compare reports/SWEEP_counting-smoke.json \\
        --output reports/SERVED_counting-smoke.json

    python -m repro.server.smoke --distributed \\
        --compare reports/SWEEP_counting-smoke.json \\
        --output reports/SERVED_distributed-smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..kinds import KINDS
from .cache import stable_document
from .client import ReproClient
from .worker import WorkerProcess

__all__ = ["main"]

_LISTENING = re.compile(r"repro-serve listening on http://([^:\s]+):(\d+)")

#: The builtin sweep both modes submit.
SWEEP = "counting-smoke"
#: ``repro-worker`` processes the server spawns in single-host mode.
WORKERS = 2
#: How long to wait for one job.
TIMEOUT_S = 600.0
#: The lease TTL of the distributed mode's server.
LEASE_TTL_S = 10.0


class SmokeFailure(Exception):
    """An assertion of the service contract did not hold."""


def _drain(stream, sink: List[str]) -> None:
    for line in stream:
        sink.append(line)


def _start_server(extra_args: List[str]) -> "tuple[subprocess.Popen, str, List[str]]":
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--port",
            "0",
            "--workers",
            str(WORKERS),
            "--quiet",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    base_url = None
    log: List[str] = []
    assert process.stdout is not None
    for line in process.stdout:
        log.append(line)
        match = _LISTENING.search(line)
        if match:
            base_url = f"http://{match.group(1)}:{match.group(2)}"
            break
    if base_url is None:
        process.wait(timeout=10)
        raise SmokeFailure(
            "server never announced its address; output:\n" + "".join(log)
        )
    # Keep the pipe drained so the server can never block on a full buffer.
    threading.Thread(
        target=_drain, args=(process.stdout, log), daemon=True
    ).start()
    return process, base_url, log


def _stop_server(process: Optional[subprocess.Popen]) -> None:
    if process is None:
        return
    process.terminate()
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=15)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _watch_into(client: ReproClient, job_id: str, sink: List[dict], errors: List[str]) -> None:
    """Drain a live SSE stream into ``sink`` (runs on a watcher thread)."""
    try:
        for record in client.watch(job_id):
            sink.append(record)
    except Exception as error:  # noqa: BLE001 - surfaced by the main thread
        errors.append(f"{type(error).__name__}: {error}")


def _compare_and_write(
    artifact: Dict[str, Any],
    compare: Optional[str],
    output: Optional[str],
) -> None:
    if compare:
        with open(compare, "r", encoding="utf-8") as handle:
            cli_document = json.load(handle)
        _expect(
            stable_document(cli_document) == stable_document(artifact),
            f"served artifact differs from CLI artifact {compare} "
            f"beyond volatile fields",
        )
        print(f"artifact equivalence: served == CLI ({compare})")
    if output:
        directory = os.path.dirname(output)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"served artifact written to {output}")


# --------------------------------------------------------------------------
# Single-host flow, with a restart between the two submissions
# --------------------------------------------------------------------------


def _single_host_flow(args: argparse.Namespace) -> int:
    spec = KINDS["sweep"].resolve_builtin(SWEEP)
    spec_dict = spec.to_dict()
    grid = len(spec.cells())
    server_args = ["--cache-dir", args.cache_dir]
    process = None
    log: List[str] = []
    try:
        process, base_url, log = _start_server(server_args)
        client = ReproClient(base_url)

        health = client.healthz()
        print(f"healthz: version {health['version']}, {health['workers']} worker(s)")

        first = client.submit("sweep", spec_dict)
        # Attach a live event stream while the job runs; the watcher thread
        # drains SSE frames until the terminal ``end`` event arrives.
        events: List[dict] = []
        watch_errors: List[str] = []
        watcher = threading.Thread(
            target=_watch_into,
            args=(client, first["job_id"], events, watch_errors),
            daemon=True,
        )
        watcher.start()
        done_first = client.wait(first["job_id"], timeout_s=TIMEOUT_S)
        _expect(
            done_first["state"] == "done",
            f"first job finished {done_first['state']}: {done_first['error']}",
        )
        progress = done_first["progress"]
        _expect(
            progress["executed_cells"] == grid and progress["cached_cells"] == 0,
            f"first job should compute all {grid} cells, got {progress}",
        )
        _expect(
            progress["remote_cells"] == progress["executed_cells"] == grid,
            f"every cell should come through a lease to a spawned worker, "
            f"got {progress}",
        )
        artifact_first = client.artifact(first["job_id"])
        print(
            f"job 1 ({first['job_id']}): computed {grid}/{grid} cells, "
            "each leased to a spawned worker"
        )

        watcher.join(timeout=30.0)
        _expect(not watcher.is_alive(), "event stream never delivered the end event")
        _expect(not watch_errors, f"event stream failed: {watch_errors}")
        cell_ids = {
            record["data"]["cell_id"]
            for record in events
            if record["event"] == "cell"
        }
        _expect(
            len(cell_ids) >= grid,
            f"expected a cell event for each of {grid} cells, saw {sorted(cell_ids)}",
        )
        seqs = [int(record["id"]) for record in events if record["id"] is not None]
        _expect(
            all(later > earlier for earlier, later in zip(seqs, seqs[1:])),
            f"event sequence numbers are not strictly increasing: {seqs}",
        )
        _expect(
            events and events[-1]["event"] == "end",
            f"the stream must close with an end event, got {[e['event'] for e in events]}",
        )
        print(
            f"events: {len(events)} frames, {len(cell_ids)} cell(s), "
            "ordered, end-terminated"
        )

        # Restart the server: the second submission can only be served
        # from disk, so the 100%-hit assertion below proves persistence.
        _stop_server(process)
        process = None
        print(f"server restarted over cache dir {args.cache_dir}")
        process, base_url, log = _start_server(server_args)
        client = ReproClient(base_url)

        second = client.submit("sweep", spec_dict)
        done_second = client.wait(second["job_id"], timeout_s=TIMEOUT_S)
        _expect(
            done_second["state"] == "done",
            f"second job finished {done_second['state']}: {done_second['error']}",
        )
        progress = done_second["progress"]
        _expect(
            progress["cached_cells"] == grid and progress["executed_cells"] == 0,
            f"second job should be fully cached, got {progress}",
        )
        artifact_second = client.artifact(second["job_id"])
        print(f"job 2 ({second['job_id']}): served {grid}/{grid} cells from cache")

        stats = client.cache_stats()
        _expect(
            stats["hits"] >= grid,
            f"expected at least {grid} cache hits, got {stats}",
        )
        _expect(
            stats["disk_loads"] >= grid,
            f"expected at least {grid} disk loads after the restart, got {stats}",
        )
        print(
            f"cache: {stats['hits']} hits, {stats['disk_loads']} loaded "
            f"from disk ({stats['disk_entries']} files, "
            f"{stats['disk_bytes']} bytes on disk)"
        )

        _expect(
            stable_document(artifact_first) == stable_document(artifact_second),
            "computed and cache-served artifacts differ beyond volatile fields",
        )
        print("artifact equivalence: computed == cache-served (across a restart)")

        _compare_and_write(artifact_second, args.compare, args.output)
        print("server smoke: PASS")
        return 0
    except SmokeFailure as failure:
        print(f"server smoke: FAIL - {failure}", file=sys.stderr)
        if log:
            print("server output:\n" + "".join(log), file=sys.stderr)
        return 1
    finally:
        _stop_server(process)


# --------------------------------------------------------------------------
# Distributed flow: two external workers, one SIGKILLed mid-cell
# --------------------------------------------------------------------------


def _distributed_flow(args: argparse.Namespace) -> int:
    spec = KINDS["sweep"].resolve_builtin(SWEEP)
    spec_dict = spec.to_dict()
    grid = len(spec.cells())
    process = None
    log: List[str] = []
    workers: List[WorkerProcess] = []
    try:
        process, base_url, log = _start_server(
            ["--remote-only", "--lease-ttl-s", str(LEASE_TTL_S)]
        )
        client = ReproClient(base_url)
        health = client.healthz()
        print(
            f"healthz: version {health['version']} (remote-only scheduler, "
            f"lease TTL {LEASE_TTL_S:g}s)"
        )

        workers = [
            WorkerProcess(base_url, "smoke-victim"),
            WorkerProcess(base_url, "smoke-survivor"),
        ]
        print("attached 2 repro-worker processes")

        job = client.submit("sweep", spec_dict)
        job_id = job["job_id"]

        # SIGKILL the victim the instant it announces its first lease —
        # before the cell finishes, so its lease must expire and requeue.
        deadline = time.monotonic() + TIMEOUT_S
        while not workers[0].leased.is_set():
            _expect(
                time.monotonic() < deadline,
                "the victim worker never leased a cell; server log:\n"
                + "".join(workers[0].log),
            )
            _expect(
                workers[0].process.poll() is None,
                "the victim worker exited before leasing:\n"
                + "".join(workers[0].log),
            )
            time.sleep(0.02)
        workers[0].process.kill()
        workers[0].process.wait(timeout=15)
        print("SIGKILLed smoke-victim mid-cell (after its first lease)")

        done = client.wait(job_id, timeout_s=TIMEOUT_S)
        _expect(
            done["state"] == "done",
            f"job finished {done['state']} despite the surviving worker: "
            f"{done['error']}",
        )
        progress = done["progress"]
        _expect(
            progress["failed_cells"] == [],
            f"no cell may fail over a worker death, got {progress}",
        )
        _expect(
            progress["executed_cells"] == grid,
            f"all {grid} cells should execute remotely, got {progress}",
        )
        print(
            f"job {job_id}: done, {progress['remote_cells']} cells via "
            "remote workers"
        )

        # The finished job's event log, replayed: every lease expiry and
        # every resolved cell with the worker it came from.
        history = list(client.watch(job_id))
        expired = [
            record["data"]
            for record in history
            if record["event"] == "lease" and record["data"]["state"] == "expired"
        ]
        requeued = sum(1 for lease in expired if lease["requeued"])
        survivor_cells = sum(
            1
            for record in history
            if record["event"] == "cell"
            and record["data"]["source"] == "worker:smoke-survivor"
        )
        _expect(
            len(expired) >= 1 and requeued >= 1,
            f"the killed worker's lease must expire and requeue, got "
            f"expired={len(expired)} requeued={requeued}",
        )
        _expect(
            survivor_cells >= 1,
            f"the surviving worker should finish cells, got {survivor_cells}",
        )
        print(
            f"leases (event log): {len(expired)} expired, {requeued} requeued, "
            f"{survivor_cells} cells by the survivor"
        )

        artifact = client.artifact(job_id)
        _compare_and_write(artifact, args.compare, args.output)
        print("distributed smoke: PASS")
        return 0
    except SmokeFailure as failure:
        print(f"distributed smoke: FAIL - {failure}", file=sys.stderr)
        if log:
            print("server output:\n" + "".join(log), file=sys.stderr)
        for worker in workers:
            if worker.log:
                print(
                    f"{worker.worker_id} output:\n" + "".join(worker.log),
                    file=sys.stderr,
                )
        return 1
    finally:
        for worker in workers:
            try:
                worker.stop()
            except subprocess.TimeoutExpired:
                pass
        _stop_server(process)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.smoke",
        description="Boot repro-serve and prove the submit/cache/serve contract.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist the result cache here and restart the server between "
            "the two submissions, proving the on-disk cache (required "
            "without --distributed)"
        ),
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "remote-only mode: attach two repro-worker processes, SIGKILL "
            "one mid-cell, and require the job to complete anyway"
        ),
    )
    parser.add_argument(
        "--compare",
        default=None,
        help=(
            f"CLI-written {KINDS['sweep'].prefix}*.json to compare the served "
            "artifact against"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the served artifact document",
    )
    args = parser.parse_args(argv)
    if args.distributed:
        return _distributed_flow(args)
    if not args.cache_dir:
        parser.error("--cache-dir is required without --distributed")
    return _single_host_flow(args)


if __name__ == "__main__":
    sys.exit(main())
