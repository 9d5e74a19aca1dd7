"""Tests of the simulation-as-a-service job server.

Every test runs the server's one execution path: a real
:class:`ReproServer` on an ephemeral port with one in-thread
:class:`~repro.server.worker.Worker` leasing its cells (the ``serve``
fixture of ``conftest.py``).  The worker runs in this process, so
instrumented executors are injected by patching the ``executor`` of the
kind's runner (:func:`use_executor`).  The HTTP tests drive the same
setup through :class:`ReproClient`.
"""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.errors import ConfigurationError
from repro.experiments import BudgetPolicy, SweepRunner, SweepSpec
from repro.experiments import build_document as build_sweep_document
from repro.fingerprint import code_fingerprint, spec_sha256
from repro.scenarios import EventSpec, ScenarioSpec
from repro.server import (
    JobManager,
    JobNotReady,
    ResultCache,
    ServerError,
    UnknownJob,
    cache_key,
    stable_document,
)
from repro.server.cache import VOLATILE_KEYS
from repro.server.client import parse_sse
from repro.kinds import KINDS


# --------------------------------------------------------------------------
# Fixtures
# --------------------------------------------------------------------------


def tiny_sweep(**overrides):
    defaults = dict(
        name="tiny-serve",
        protocol="one-way-epidemic",
        ns=[8, 16],
        seeds_per_cell=1,
        backend="batch",
        budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def tiny_scenario(**overrides):
    defaults = dict(
        name="tiny-serve-chaos",
        protocol="one-way-epidemic",
        ns=[16],
        backends=["batch"],
        seeds_per_cell=1,
        events=[
            EventSpec(
                kind="leave",
                fraction=0.25,
                at=BudgetPolicy(factor=4.0, n_exponent=1.0, log_exponent=1.0),
            )
        ],
        budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def use_executor(monkeypatch, kind, execute):
    """Run ``kind``'s cells with ``execute`` (the worker reads its runner's)."""
    monkeypatch.setattr(KINDS[kind].runner_class(), "executor", staticmethod(execute))


def wait_terminal(manager, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while True:
        status = manager.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        assert time.monotonic() < deadline, f"job {job_id} stuck: {status}"
        time.sleep(0.02)


def gated_executor():
    """A sweep-cell executor that blocks until released.

    Returns ``(execute, started, release)``: ``started`` is set when a cell
    begins, and every cell waits for ``release``.
    """
    started = threading.Event()
    release = threading.Event()

    def execute(payload):
        started.set()
        assert release.wait(timeout=60)
        return {
            "cell_id": payload["cell_id"],
            "n": payload["n"],
            "params": payload["params"],
            "seeds": payload["seeds"],
            "runs": [{"seed": seed, "converged": True} for seed in payload["seeds"]],
            "stats": {},
            "error": None,
            "wall_time_s": 0.0,
        }

    return execute, started, release


@pytest.fixture
def manager(serve):
    """A manager behind a real server with one in-thread worker."""
    mgr = JobManager()
    serve(mgr, workers=1)
    return mgr


# --------------------------------------------------------------------------
# Cache key and stable projection
# --------------------------------------------------------------------------


def test_cache_key_is_deterministic_and_content_addressed():
    payload = {"cell_id": "c", "n": 8, "seeds": [1, 2]}
    assert cache_key(payload) == cache_key(dict(payload))
    assert cache_key(payload) != cache_key({**payload, "n": 16})
    assert cache_key(payload, "v1") != cache_key(payload, "v2")
    assert cache_key(payload) == cache_key(payload, code_fingerprint())


def test_stable_document_strips_volatile_keys_recursively():
    document = {
        "generated_unix": 123,
        "workers": 8,
        "cells": [
            {"cell_id": "a", "wall_time_s": 1.5, "runs": [{"wall_time_s": 0.2}]}
        ],
    }
    stable = stable_document(document)
    assert "generated_unix" not in stable
    assert "workers" not in stable
    assert "wall_time_s" not in stable["cells"][0]
    assert stable["cells"][0]["runs"] == [{}]
    # The original is untouched.
    assert document["cells"][0]["wall_time_s"] == 1.5
    assert VOLATILE_KEYS == {"generated_unix", "workers", "wall_time_s"}


# --------------------------------------------------------------------------
# ResultCache
# --------------------------------------------------------------------------


def test_result_cache_round_trip_isolates_stored_records():
    cache = ResultCache()
    record = {"cell_id": "a", "error": None, "stats": {"runs": 2}}
    assert cache.put("k", record)
    record["stats"]["runs"] = 99  # caller mutation must not reach the cache
    first = cache.get("k")
    assert first["stats"]["runs"] == 2
    first["stats"]["runs"] = 77  # nor must mutating a served copy
    assert cache.get("k")["stats"]["runs"] == 2


def test_result_cache_refuses_failed_records():
    cache = ResultCache()
    assert not cache.put("k", {"cell_id": "a", "error": "boom"})
    assert not cache.put("k", {})
    assert cache.get("k") is None
    assert cache.stats()["entries"] == 0


def test_result_cache_evicts_least_recently_used():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"cell_id": "a"})
    cache.put("b", {"cell_id": "b"})
    assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
    cache.put("c", {"cell_id": "c"})
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    assert cache.stats()["evictions"] == 1


def test_result_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


# --------------------------------------------------------------------------
# JobManager lifecycle
# --------------------------------------------------------------------------


def test_sweep_job_lifecycle_then_full_cache_hit(manager):
    spec = tiny_sweep()
    first = manager.submit("sweep", spec.to_dict())
    assert first["state"] in ("queued", "running", "done")
    status = wait_terminal(manager, first["job_id"])
    assert status["state"] == "done"
    assert status["progress"]["executed_cells"] == 2
    assert status["progress"]["cached_cells"] == 0
    assert status["progress"]["failed_cells"] == []
    assert status["submitted_unix"] <= status["started_unix"] <= status["finished_unix"]
    artifact = manager.artifact(first["job_id"])
    assert artifact["code_fingerprint"] == code_fingerprint()
    assert artifact["spec_sha256"] == spec_sha256(spec.to_dict())
    assert [cell["cell_id"] for cell in artifact["cells"]] == [
        cell.cell_id for cell in spec.cells()
    ]

    second = manager.submit("sweep", spec.to_dict())
    status = wait_terminal(manager, second["job_id"])
    assert status["state"] == "done"
    assert status["progress"]["cached_cells"] == 2
    assert status["progress"]["executed_cells"] == 0
    assert set(status["progress"]["cells"].values()) == {"cached"}
    again = manager.artifact(second["job_id"])
    assert stable_document(again) == stable_document(artifact)
    stats = manager.cache.stats()
    assert stats["hits"] == 2 and stats["puts"] == 2
    assert manager.counts()["done"] == 2


def test_served_sweep_matches_inline_runner_document(manager):
    spec = tiny_sweep(name="tiny-serve-equiv")
    job = manager.submit("sweep", spec.to_dict())
    wait_terminal(manager, job["job_id"])
    served = manager.artifact(job["job_id"])
    cells = SweepRunner(spec, workers=1).run()
    inline = build_sweep_document(spec, cells, workers=1)
    assert stable_document(served) == stable_document(inline)


def test_scenario_job_lifecycle(manager):
    spec = tiny_scenario()
    job = manager.submit("scenario", spec.to_dict())
    status = wait_terminal(manager, job["job_id"])
    assert status["state"] == "done"
    artifact = manager.artifact(job["job_id"])
    assert artifact["spec"] == spec.to_dict()
    assert artifact["code_fingerprint"] == code_fingerprint()
    assert len(artifact["cells"]) == 1
    assert artifact["cells"][0]["error"] is None


def test_submit_rejects_unknown_kind_and_invalid_spec(manager):
    with pytest.raises(ConfigurationError, match="unknown job kind"):
        manager.submit("bake", {"name": "x"})
    with pytest.raises(
        ConfigurationError, match=r"unknown job kind 'search'.*\('sweep', 'scenario'\)"
    ):
        manager.submit("search", {"name": "x"})
    with pytest.raises(ConfigurationError):
        manager.submit("sweep", {"name": "x", "protocol": "no-such", "ns": [8]})
    with pytest.raises(ConfigurationError):
        manager.submit("sweep", "not-a-dict")
    # Nothing was enqueued by the rejected submissions.
    assert manager.jobs() == []


def test_unknown_job_and_artifact_not_ready(manager):
    with pytest.raises(UnknownJob):
        manager.status("nope")
    with pytest.raises(UnknownJob):
        manager.artifact("nope")
    with pytest.raises(UnknownJob):
        manager.cancel("nope")
    job = manager.submit("sweep", tiny_sweep().to_dict())
    wait_terminal(manager, job["job_id"])
    assert manager.artifact(job["job_id"])["spec"]["name"] == "tiny-serve"


def test_cancel_queued_job_is_immediate_and_running_job_stops_at_boundary(
    manager, monkeypatch
):
    gated, started, release = gated_executor()
    use_executor(monkeypatch, "sweep", gated)
    try:
        spec = tiny_sweep()
        running = manager.submit("sweep", spec.to_dict())
        assert started.wait(timeout=30)
        queued = manager.submit("sweep", tiny_sweep(name="tiny-serve-b").to_dict())

        verdict = manager.cancel(queued["job_id"])
        assert verdict == {
            "job_id": queued["job_id"],
            "state": "cancelled",
            "cancelled": True,
        }
        assert manager.status(queued["job_id"])["state"] == "cancelled"

        # Cancel the running job: its queue is aborted, so the second cell
        # of its two-cell grid is never leased; the in-flight one finishes
        # on the worker once released, too late to count.
        manager.cancel(running["job_id"])
        status = wait_terminal(manager, running["job_id"])
        assert status["state"] == "cancelled"
        release.set()
        assert status["progress"]["completed_cells"] == 0
        with pytest.raises(JobNotReady):
            manager.artifact(running["job_id"])
        # Cancelling a finished job is a no-op.
        assert manager.cancel(queued["job_id"])["cancelled"] is False
    finally:
        release.set()


def test_fresh_failure_does_not_displace_cached_success(manager, monkeypatch):
    calls = {"count": 0}

    def flaky(payload):
        calls["count"] += 1
        record = {
            "cell_id": payload["cell_id"],
            "n": payload["n"],
            "params": payload["params"],
            "seeds": payload["seeds"],
            "runs": [{"seed": seed, "converged": True} for seed in payload["seeds"]],
            "stats": {},
            "error": None,
            "wall_time_s": 0.0,
        }
        if calls["count"] > 2:
            record["error"] = "transient crash"
            record["runs"] = []
        return record

    use_executor(monkeypatch, "sweep", flaky)
    spec = tiny_sweep()
    first = manager.submit("sweep", spec.to_dict())
    assert wait_terminal(manager, first["job_id"])["state"] == "done"
    # Identical resubmission: both cells are cache hits, the flaky
    # executor is never consulted again, and nothing fails.
    second = manager.submit("sweep", spec.to_dict())
    status = wait_terminal(manager, second["job_id"])
    assert status["state"] == "done"
    assert status["progress"]["failed_cells"] == []
    assert calls["count"] == 2


def test_concurrent_submissions_all_complete(manager):
    ids = [
        manager.submit("sweep", tiny_sweep(name=f"tiny-serve-{index}").to_dict())[
            "job_id"
        ]
        for index in range(3)
    ]
    assert len(set(ids)) == 3
    for job_id in ids:
        assert wait_terminal(manager, job_id)["state"] == "done"
    listed = [status["job_id"] for status in manager.jobs()]
    assert listed == ids  # submission order is preserved
    counts = manager.counts()
    assert counts["done"] == 3 and counts["failed"] == 0


# --------------------------------------------------------------------------
# HTTP layer
# --------------------------------------------------------------------------


@pytest.fixture
def http_server(serve):
    return serve(JobManager(), workers=1)


def test_http_end_to_end_lifecycle(http_server):
    client = http_server
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["code_fingerprint"] == code_fingerprint()

    spec = tiny_sweep(name="tiny-http")
    submitted = client.submit("sweep", spec.to_dict())
    assert submitted["kind"] == "sweep"
    status = client.wait(submitted["job_id"], timeout_s=120.0)
    assert status["state"] == "done"
    artifact = client.artifact(submitted["job_id"])
    assert artifact["spec"] == spec.to_dict()
    assert [job["job_id"] for job in client.jobs()] == [submitted["job_id"]]

    # The one-shot helper resolves entirely from the cache the second time.
    again = client.run("sweep", spec.to_dict(), timeout_s=120.0)
    assert stable_document(again) == stable_document(artifact)
    stats = client.cache_stats()
    assert stats["hits"] >= len(spec.cells())
    assert client.healthz()["jobs"]["done"] == 2


def test_http_error_codes(http_server):
    client = http_server
    with pytest.raises(ServerError) as excinfo:
        client.submit("bake", {"name": "x"})
    assert excinfo.value.status == 400
    with pytest.raises(ServerError) as excinfo:
        client.submit("sweep", {"name": "x", "protocol": "no-such", "ns": [8]})
    assert excinfo.value.status == 400 and "no-such" in excinfo.value.message
    with pytest.raises(ServerError) as excinfo:
        client.status("missing-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        client.artifact("missing-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        client.cancel("missing-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        client._request("GET", "/no/such/route")
    assert excinfo.value.status == 404

    # Malformed bodies: not JSON, and JSON that is not an object.
    for raw in (b"{not json", b"[1, 2]"):
        request = urllib.request.Request(
            f"{client.base_url}/jobs",
            data=raw,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


def test_http_artifact_conflict_while_unfinished(http_server, monkeypatch):
    client = http_server
    gated, started, release = gated_executor()
    use_executor(monkeypatch, "sweep", gated)
    try:
        job = client.submit("sweep", tiny_sweep(name="tiny-409").to_dict())
        assert started.wait(timeout=30)
        with pytest.raises(ServerError) as excinfo:
            client.artifact(job["job_id"])
        assert excinfo.value.status == 409
        cancelled = client.cancel(job["job_id"])
        assert cancelled["cancelled"] is True
        release.set()
        status = client.wait(job["job_id"], timeout_s=60.0)
        assert status["state"] == "cancelled"
        with pytest.raises(ServerError) as excinfo:
            client.artifact(job["job_id"])
        assert excinfo.value.status == 409  # cancelled jobs have no artifact
    finally:
        release.set()


# --------------------------------------------------------------------------
# Job event log (SSE source of truth)
# --------------------------------------------------------------------------


def test_job_event_log_is_replayable_ordered_and_end_terminated(manager):
    spec = tiny_sweep(name="tiny-events")
    job = manager.submit("sweep", spec.to_dict())
    wait_terminal(manager, job["job_id"])
    events, ended = manager.events_after(job["job_id"], -1)
    assert ended
    # seq == index: the log is append-only and replayable from any point.
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert events[0]["event"] == "job"
    assert events[0]["data"]["state"] == "queued"
    cell_events = [event for event in events if event["event"] == "cell"]
    assert len(cell_events) == len(spec.cells())
    assert {event["data"]["cell_id"] for event in cell_events} == {
        cell.cell_id for cell in spec.cells()
    }
    assert [event["event"] for event in events].count("end") == 1
    assert events[-1]["event"] == "end"
    assert events[-1]["data"]["state"] == "done"
    # Resuming from the middle yields exactly the tail.
    tail, ended = manager.events_after(job["job_id"], events[1]["seq"])
    assert ended
    assert [event["seq"] for event in tail] == [e["seq"] for e in events[2:]]
    # Resuming past the end neither blocks nor yields anything.
    empty, ended = manager.events_after(job["job_id"], events[-1]["seq"], wait_s=0.5)
    assert empty == [] and ended


def test_every_terminal_path_emits_exactly_one_end_event(manager, monkeypatch):
    gated, started, release = gated_executor()
    use_executor(monkeypatch, "sweep", gated)
    try:
        running = manager.submit("sweep", tiny_sweep(name="tiny-end-a").to_dict())
        assert started.wait(timeout=30)
        queued = manager.submit("sweep", tiny_sweep(name="tiny-end-b").to_dict())
        manager.cancel(queued["job_id"])
        events, ended = manager.events_after(queued["job_id"], -1)
        assert ended
        assert [event["event"] for event in events].count("end") == 1
        assert events[-1]["data"]["state"] == "cancelled"

        manager.cancel(running["job_id"])
        release.set()
        wait_terminal(manager, running["job_id"])
        events, ended = manager.events_after(running["job_id"], -1)
        assert ended
        assert [event["event"] for event in events].count("end") == 1
        assert events[-1]["data"]["state"] == "cancelled"
    finally:
        release.set()


# --------------------------------------------------------------------------
# HTTP: the SSE stream
# --------------------------------------------------------------------------


def test_http_sse_stream_is_ordered_replayable_and_resumable(http_server):
    client = http_server
    spec = tiny_sweep(name="tiny-http-sse")
    job = client.submit("sweep", spec.to_dict())
    assert client.wait(job["job_id"], timeout_s=120.0)["state"] == "done"

    # A finished job replays its whole history and closes after "end".
    events = list(client.watch(job["job_id"]))
    seqs = [int(event["id"]) for event in events]
    assert seqs == sorted(set(seqs))
    assert events[-1]["event"] == "end"
    assert {
        event["data"]["cell_id"] for event in events if event["event"] == "cell"
    } == {cell.cell_id for cell in spec.cells()}
    assert all(event["data"]["job_id"] == job["job_id"] for event in events)

    # Last-Event-ID resumes mid-log: only strictly later frames arrive.
    request = urllib.request.Request(
        f"{client.base_url}/jobs/{job['job_id']}/events",
        headers={"Last-Event-ID": str(seqs[1])},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.headers["Content-Type"].startswith("text/event-stream")
        resumed = list(parse_sse(response))
    assert [int(event["id"]) for event in resumed] == seqs[2:]


def test_event_stream_alone_shows_each_cell_cached_or_leased_first(http_server):
    client = http_server
    spec = tiny_sweep(name="tiny-http-sources")
    sources = []
    for _ in range(2):  # computed, then served from the cache
        job = client.submit("sweep", spec.to_dict())
        leased = {}
        cell_events = 0
        for event in client.watch(job["job_id"]):
            data = event["data"]
            if event["event"] == "lease" and data["state"] == "granted":
                leased[data["cell_id"]] = data["worker"]
            elif event["event"] == "cell":
                cell_events += 1
                sources.append(data["source"])
                if data["source"] != "cache":
                    assert data["source"] == f"worker:{leased[data['cell_id']]}"
        assert cell_events == len(spec.cells())
    grid = len(spec.cells())
    assert sources == ["worker:test-worker-1"] * grid + ["cache"] * grid


def test_http_sse_unknown_job_is_a_permanent_404(http_server):
    with pytest.raises(ServerError) as excinfo:
        list(http_server.watch("missing-job"))
    assert excinfo.value.status == 404


def test_parse_sse_frames_comments_and_multiline_data():
    lines = [
        b": keepalive\n",
        b"id: 3\n",
        b"event: cell\n",
        b'data: {"a":\n',
        b'data: 1}\n',
        b"\n",
        b'data: {"b": 2}\n',
        b"\n",
    ]
    frames = list(parse_sse(iter(lines)))
    assert frames == [
        {"id": "3", "event": "cell", "data": {"a": 1}},
        {"id": None, "event": "message", "data": {"b": 2}},
    ]
