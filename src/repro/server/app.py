"""The HTTP JSON API over :class:`~repro.server.jobs.JobManager`.

Stdlib only: a :class:`~http.server.ThreadingHTTPServer` whose handler
threads merely translate requests into (thread-safe) manager calls.  No
simulation runs in the server process: every cell is leased to a
``repro-worker`` through the ``/work`` routes, so the API stays responsive
while jobs grind.  Connections are kept alive (HTTP/1.1), one handler
thread per connection, so a worker's requests reuse one connection and
one thread.  A connection idle for :data:`IDLE_TIMEOUT_S` is closed, so a
client that vanished holds no thread for long (a live one reopens it on
its next request), and :meth:`ReproServer.server_close` shuts down those
still open.

Routes:

============================  =============================================
``GET /healthz``              liveness, version, fingerprint, attached
                              workers, job counts
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
                              (``accepted``) or a dedup'd duplicate;
                              ``?next=<worker>`` adds ``"next"``: the
                              lease ``POST /work/lease`` would grant that
                              worker now, or ``null``
============================  =============================================

The three ``/work`` routes are the pull protocol ``repro-worker`` speaks —
see :mod:`repro.server.worker` — and the only way a cell is executed.  A
busy worker makes one request per cell: each push asks for the next lease,
and ``POST /work/lease`` is left for its first cell and its idle polls.

Errors are JSON too: 400 carries the spec-validation message, 404 an
unknown job id or route, 409 an artifact requested before the job is done.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

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

#: How long a kept-alive connection may wait for its next request before
#: its handler thread closes it: twice the default lease TTL.
IDLE_TIMEOUT_S = 120.0


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobManager`.

    It tracks the connections its handler threads serve, so
    :meth:`server_close` can end the kept-alive ones: no handler thread
    outlives the server and answers from a closed manager.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        quiet: bool = True,
    ) -> None:
        self.manager = manager
        self.quiet = quiet
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, ReproRequestHandler)

    def get_request(self) -> Tuple[socket.socket, Any]:
        connection, address = super().get_request()
        with self._connections_lock:
            self._connections.add(connection)
        return connection, address

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and shut down every open connection: a handler
        thread waiting for its next request on one then ends."""
        self.socket.close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already went away
        super().server_close()


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP requests into :class:`JobManager` calls."""

    server_version = f"repro-serve/{PACKAGE_VERSION}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # body waits for the client's delayed ACK of the headers (~40 ms per
    # response on a kept-alive connection).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

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
        if self.close_connection:
            self.send_header("Connection", "close")
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
            # Whatever body there is stays unread: end the connection after
            # the reply rather than parse it as the next request.
            self.close_connection = True
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
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            return  # client went away (or stalled); nothing to clean up

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
            self.close_connection = True  # the body stays unread
            self._error(404, f"no such route: POST {self.path}")

    def _submit_job(self) -> None:
        body = self._read_json_body()
        if body is None:
            return
        kind = body.get("kind")
        spec = body.get("spec")
        if not isinstance(kind, str) or spec is None:
            self._error(400, 'a job is {"kind": "sweep|scenario", "spec": {...}}')
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
        reply = self._manager.complete_work(lease_id, body)
        next_worker = parse_qs(urlparse(self.path).query).get("next")
        if next_worker:
            reply["next"] = self._manager.lease_work(next_worker[0])
        self._send_json(200, reply)

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
