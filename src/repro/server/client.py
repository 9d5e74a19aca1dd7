"""A thin stdlib HTTP client for the job server.

:class:`ReproClient` speaks HTTP/1.1 through :mod:`http.client` so tests,
scripts, workers and the CI smoke can drive ``repro-serve`` without any
HTTP dependency.  Each calling thread keeps one persistent connection to
the server, so a worker's lease, heartbeat and push requests cost no TCP
handshake and no new server thread each.  Error responses (the server's
JSON ``{"error": ...}`` bodies) surface as :class:`ServerError` with the
HTTP status attached, so callers can branch on 409 (artifact not ready)
versus 400/404 (caller bugs); every transport failure surfaces as a
:class:`ServerError` with status 0.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional
from urllib.parse import quote, urlsplit

__all__ = ["ReproClient", "ServerError", "parse_sse"]

#: Job states that will never change again.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: What a kept-alive connection the server has closed raises: on send, or
#: before any response byte (the server's FIN as ``RemoteDisconnected``,
#: its FIN then reset as ``BrokenPipeError``).  Either way the server read
#: no request, so it is sent once more.  A plain reset after the send may
#: follow a request the server read, so that one is not resent.
STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)
RESENDABLE_AFTER_SEND = (BrokenPipeError, http.client.RemoteDisconnected)

#: Every failure of the transport itself (refused, reset, timed out,
#: malformed reply).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServerError(Exception):
    """A non-2xx response from the job server.

    Attributes:
        status: The HTTP status code (0 when the server was unreachable).
        message: The server's ``error`` message, or the transport failure.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.message = message


def parse_sse(lines: Iterable[bytes]) -> Iterator[Dict[str, Any]]:
    """Parse a ``text/event-stream`` byte-line iterable into event dicts.

    Yields ``{"id": str | None, "event": str, "data": parsed JSON}`` per
    frame (blank-line terminated).  Comment lines (``:`` prefixed
    keepalives) are skipped; multi-line ``data:`` fields are joined with
    newlines before JSON decoding, per the SSE specification.
    """
    event_id: Optional[str] = None
    event: Optional[str] = None
    data_lines: List[str] = []
    for raw in lines:
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:
            if data_lines or event is not None or event_id is not None:
                data = json.loads("\n".join(data_lines)) if data_lines else None
                yield {"id": event_id, "event": event or "message", "data": data}
            event_id = None
            event = None
            data_lines = []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if field == "id":
            event_id = value
        elif field == "event":
            event = value
        elif field == "data":
            data_lines.append(value)


def _error_message(raw: bytes, fallback: str) -> str:
    """The ``error`` field of a JSON error body, else the body itself."""
    text = raw.decode("utf-8", errors="replace")
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError:
        return text or fallback
    return str(decoded.get("error", text) if isinstance(decoded, dict) else text)


class ReproClient:
    """Talk to one ``repro-serve`` instance.

    Every thread that calls the client gets a kept-alive connection of its
    own (a worker's loop and its heartbeat thread never share one).  A
    request on a reused connection the server has meanwhile closed is sent
    once more on a new one when its send fails or its reply ends before
    the first byte; any other failure is raised, never retried, so
    :meth:`submit` cannot create a job twice.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8765"`` (trailing slash ignored).
        timeout_s: Per-request socket timeout.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) server URL: {base_url!r}")
        self._factory = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host, self._port = parts.hostname, parts.port
        self._prefix = parts.path
        self._local = threading.local()

    # ------------------------------------------------------------ transport
    def _connect(self) -> http.client.HTTPConnection:
        return self._factory(self._host, self._port, timeout=self.timeout_s)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One request on this thread's connection; the decoded response.

        Raises :class:`ServerError` with the status of a non-2xx response,
        or status 0 when the transport failed.
        """
        headers = {"Accept": "application/json"}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
        reused = connection.sock is not None
        url = self._prefix + path
        sent = False
        try:
            try:
                connection.request(method, url, body=data, headers=headers)
                sent = True
                response = connection.getresponse()
            except STALE_CONNECTION as error:
                stale = not sent or isinstance(error, RESENDABLE_AFTER_SEND)
                if not (reused and stale):
                    raise
                connection.close()
                connection.request(method, url, body=data, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except TRANSPORT_ERRORS as error:
            connection.close()
            raise ServerError(0, f"server unreachable: {error!r}") from None
        if not 200 <= response.status < 300:
            raise ServerError(response.status, _error_message(raw, response.reason))
        if not raw:  # 204 No Content (e.g. nothing leasable)
            return {}
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def cache_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/cache/stats")

    def submit(self, kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; returns its initial status (including ``job_id``)."""
        return self._request("POST", "/jobs", {"kind": kind, "spec": spec})

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def artifact(self, job_id: str) -> Dict[str, Any]:
        """The finished document; raises :class:`ServerError` 409 until done."""
        return self._request("GET", f"/jobs/{job_id}/artifact")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    # ------------------------------------------------- worker pull protocol
    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """``POST /work/lease``: one leased cell, or ``None`` (nothing now).

        The lease dict carries ``lease_id``, the executor ``kind``, the
        canonical worker ``payload``, ``ttl_s`` and ``deadline_s`` —
        everything a ``repro-worker`` needs to execute the cell and push
        its result.
        """
        lease = self._request("POST", "/work/lease", {"worker": worker_id})
        return lease if lease.get("lease_id") else None

    def heartbeat(self, lease_id: str) -> Dict[str, Any]:
        """Extend a lease's TTL; raises :class:`ServerError` 404 once gone."""
        return self._request("POST", f"/work/{lease_id}/heartbeat", {})

    def push_result(
        self,
        lease_id: str,
        record: Dict[str, Any],
        next_worker: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /work/<lease>/result``: push one executed cell record.

        The response's ``outcome`` is ``accepted`` for the first result,
        ``duplicate`` when another worker got there
        first, ``gone`` once the batch ended — all fine for the worker,
        which just moves on to its next lease.  With ``next_worker`` the
        server also grants that worker its next cell in the same round
        trip: the response's ``next`` is a lease like :meth:`lease`
        returns, or ``None`` when nothing is leasable now.
        """
        path = f"/work/{lease_id}/result"
        if next_worker is not None:
            path += f"?next={quote(next_worker, safe='')}"
        return self._request("POST", path, record)

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its status.

        Raises :class:`ServerError` (status 0) if ``timeout_s`` elapses
        first — the job keeps running server-side.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServerError(
                    0,
                    f"job {job_id!r} still {status['state']} after {timeout_s:g}s",
                )
            time.sleep(poll_s)

    def watch(
        self,
        job_id: str,
        reconnect: bool = True,
        max_reconnects: int = 20,
    ) -> Iterator[Dict[str, Any]]:
        """Stream the job's lifecycle events from ``GET /jobs/<id>/events``.

        Yields ``{"id", "event", "data"}`` dicts in sequence order and
        returns after the terminal ``end`` event.  The job's event log is
        replayable server-side, so watching a finished job yields its full
        history.  On a dropped connection (or a server close without
        ``end``) the stream reconnects with ``Last-Event-ID`` and resumes
        where it left off; after ``max_reconnects`` consecutive failures a
        :class:`ServerError` (status 0) is raised.  HTTP errors (e.g. 404
        for an unknown job) are permanent and raised immediately.
        """
        last_id: Optional[str] = None
        failures = 0
        while True:
            headers = {"Accept": "text/event-stream"}
            if last_id is not None:
                headers["Last-Event-ID"] = last_id
            # A connection of its own: the stream must not hold up this
            # thread's request connection.
            connection = self._connect()
            try:
                connection.request(
                    "GET", f"{self._prefix}/jobs/{job_id}/events", headers=headers
                )
                response = connection.getresponse()
                if not 200 <= response.status < 300:
                    raise ServerError(
                        response.status,
                        _error_message(response.read(), response.reason),
                    )
                for record in parse_sse(response):
                    if record["id"] is not None:
                        last_id = record["id"]
                    failures = 0
                    yield record
                    if record["event"] == "end":
                        return
            except TRANSPORT_ERRORS as error:
                failures += 1
                if not reconnect or failures > max_reconnects:
                    raise ServerError(
                        0, f"event stream for {job_id!r} dropped: {error!r}"
                    ) from None
                time.sleep(min(1.0, 0.05 * failures))
                continue
            finally:
                connection.close()
            # Clean close without the terminal event (server restart or
            # proxy timeout): resume from the last seen sequence number.
            failures += 1
            if not reconnect or failures > max_reconnects:
                raise ServerError(
                    0, f"event stream for {job_id!r} closed before its end event"
                )
            time.sleep(min(1.0, 0.05 * failures))

    def run(
        self,
        kind: str,
        spec: Dict[str, Any],
        timeout_s: float = 300.0,
    ) -> Dict[str, Any]:
        """Submit, wait, and return the artifact (convenience one-shot)."""
        job_id = self.submit(kind, spec)["job_id"]
        status = self.wait(job_id, timeout_s=timeout_s)
        if status["state"] != "done":
            raise ServerError(
                0, f"job {job_id!r} finished {status['state']}: {status['error']}"
            )
        return self.artifact(job_id)
