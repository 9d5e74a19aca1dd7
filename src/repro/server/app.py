"""The HTTP JSON API over :class:`~repro.server.jobs.JobManager`.

Stdlib only: a :class:`~http.server.ThreadingHTTPServer` whose handler
threads merely translate requests into (thread-safe) manager calls.  No
simulation runs in the server process: every cell is leased to a
``repro-worker`` through the ``/work`` routes, so the API stays responsive
while jobs grind.

Routes:

============================  =============================================
``GET /healthz``              liveness, version, fingerprint, attached
                              workers, job counts
``GET /metrics``              Prometheus text exposition (jobs, cells,
                              cache, leases; see ``JobManager.metrics``)
``GET /cache/stats``          result-cache hit/miss accounting
``POST /jobs``                submit ``{"kind": ..., "spec": {...}}`` → 201
``GET /jobs``                 every job's status, submission order
``GET /jobs/<id>``            one job's status + per-cell progress
``GET /jobs/<id>/artifact``   the finished document (409 until done)
``GET /jobs/<id>/events``     live server-sent-event stream of the job's
                              lifecycle (replayable; ``Last-Event-ID``
                              resumes; closes after the ``end`` event)
``DELETE /jobs/<id>``         cancel (immediate if queued)
``POST /work/lease``          ``{"worker": id}`` → one leased cell of the
                              running batch (payload + lease id + TTL +
                              cell deadline), or
                              204 when nothing is leasable right now
``POST /work/<lease>/heartbeat``  extend the lease's TTL (404 once the
                              lease expired or the batch ended)
``POST /work/<lease>/result`` push the executed cell record back;
                              response says whether it was the first
                              (``accepted``) or a dedup'd duplicate
============================  =============================================

The three ``/work`` routes are the pull protocol ``repro-worker`` speaks —
see :mod:`repro.server.worker` — and the only way a cell is executed.

Errors are JSON too: 400 carries the spec-validation message, 404 an
unknown job id or route, 409 an artifact requested before the job is done.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from ..engine.errors import ConfigurationError
from ..fingerprint import PACKAGE_VERSION, code_fingerprint
from .jobs import JobManager, JobNotReady, UnknownJob

__all__ = ["ReproServer", "ReproRequestHandler", "make_server"]

#: Upper bound on request bodies; a spec is a few KB, so anything near this
#: is garbage (and an unbounded read would let one request exhaust memory).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: How long one SSE wait blocks before emitting a keepalive comment; also
#: bounds how quickly a streaming thread notices the client went away.
SSE_KEEPALIVE_S = 10.0


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        quiet: bool = True,
    ) -> None:
        self.manager = manager
        self.quiet = quiet
        super().__init__(address, ReproRequestHandler)


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP requests into :class:`JobManager` calls."""

    server_version = f"repro-serve/{PACKAGE_VERSION}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        # Compact: an indent forces the pure-Python encoder on every response.
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """The request body as JSON, or ``None`` after a 400 was sent."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, "a JSON body with a valid Content-Length is required")
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._error(400, f"request body is not valid JSON: {error}")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    @property
    def _manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def _route(self) -> Tuple[str, ...]:
        path = urlparse(self.path).path
        return tuple(part for part in path.split("/") if part)

    # --------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = self._route()
        manager = self._manager
        try:
            if route == ("healthz",):
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "version": PACKAGE_VERSION,
                        "code_fingerprint": code_fingerprint(),
                        "workers": manager.attached_workers(),
                        "jobs": manager.counts(),
                    },
                )
            elif route == ("metrics",):
                self._send_metrics()
            elif route == ("cache", "stats"):
                self._send_json(200, manager.cache.stats())
            elif route == ("jobs",):
                self._send_json(200, {"jobs": manager.jobs()})
            elif len(route) == 2 and route[0] == "jobs":
                self._send_json(200, manager.status(route[1]))
            elif len(route) == 3 and route[:1] == ("jobs",) and route[2] == "artifact":
                self._send_json(200, manager.artifact(route[1]))
            elif len(route) == 3 and route[:1] == ("jobs",) and route[2] == "events":
                self._stream_events(route[1])
            else:
                self._error(404, f"no such route: GET {self.path}")
        except UnknownJob as error:
            self._error(404, f"no such job: {error.args[0]}")
        except JobNotReady as error:
            self._error(409, str(error))

    def _send_metrics(self) -> None:
        body = self._manager.render_metrics().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(self, job_id: str) -> None:
        """``GET /jobs/<id>/events``: server-sent events until ``end``.

        The job's event log is append-only and replayable, so a fresh
        stream starts from the beginning (or from ``Last-Event-ID`` on
        reconnect) and then follows live.  Keepalive comments flow while
        the job is quiet; the response has no ``Content-Length``, so the
        connection closes with the stream (``Connection: close``).
        """
        manager = self._manager
        last = -1
        raw = self.headers.get("Last-Event-ID")
        if raw is not None:
            try:
                last = int(raw)
            except ValueError:
                last = -1
        manager.status(job_id)  # raises UnknownJob → 404 before headers
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            while True:
                events, ended = manager.events_after(
                    job_id, last, wait_s=SSE_KEEPALIVE_S
                )
                if not events:
                    if ended:
                        return
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                for record in events:
                    frame = (
                        f"id: {record['seq']}\n"
                        f"event: {record['event']}\n"
                        f"data: {json.dumps(record['data'], sort_keys=True)}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                    last = record["seq"]
                self.wfile.flush()
                if events[-1]["event"] == "end":
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route = self._route()
        if route == ("jobs",):
            self._submit_job()
        elif route == ("work", "lease"):
            self._lease_work()
        elif len(route) == 3 and route[0] == "work" and route[2] == "heartbeat":
            self._heartbeat_work(route[1])
        elif len(route) == 3 and route[0] == "work" and route[2] == "result":
            self._push_result(route[1])
        else:
            self._error(404, f"no such route: POST {self.path}")

    def _submit_job(self) -> None:
        body = self._read_json_body()
        if body is None:
            return
        kind = body.get("kind")
        spec = body.get("spec")
        if not isinstance(kind, str) or spec is None:
            self._error(400, 'a job is {"kind": "sweep|scenario|search", "spec": {...}}')
            return
        try:
            status = self._manager.submit(kind, spec)
        except ConfigurationError as error:
            self._error(400, str(error))
            return
        self._send_json(201, status)

    # ------------------------------------------- worker pull protocol routes
    def _lease_work(self) -> None:
        body = self._read_json_body()
        if body is None:
            return
        lease = self._manager.lease_work(body.get("worker") or "anonymous")
        if lease is None:
            # Nothing leasable right now; the worker polls again shortly.
            self.send_response(204)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._send_json(200, lease)

    def _heartbeat_work(self, lease_id: str) -> None:
        body = self._read_json_body()
        if body is None:
            return
        extended = self._manager.heartbeat_work(lease_id)
        if extended is None:
            self._error(404, f"no active lease {lease_id!r} (expired or batch over)")
            return
        self._send_json(200, extended)

    def _push_result(self, lease_id: str) -> None:
        body = self._read_json_body()
        if body is None:
            return
        self._send_json(200, self._manager.complete_work(lease_id, body))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        route = self._route()
        if len(route) != 2 or route[0] != "jobs":
            self._error(404, f"no such route: DELETE {self.path}")
            return
        try:
            self._send_json(200, self._manager.cancel(route[1]))
        except UnknownJob as error:
            self._error(404, f"no such job: {error.args[0]}")


def make_server(
    host: str,
    port: int,
    manager: JobManager,
    quiet: bool = True,
) -> ReproServer:
    """Bind a :class:`ReproServer`; ``port=0`` picks an ephemeral port.

    The caller owns both the server (``serve_forever``/``shutdown``) and the
    manager (``close``); the bound port is ``server.server_address[1]``.
    """
    return ReproServer((host, port), manager, quiet=quiet)
