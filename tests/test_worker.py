"""Tests of the worker pull protocol, the server's one execution path.

Four layers, bottom up:

* :class:`WorkQueue` — the lease table itself, driven with a fake clock so
  TTL expiry, the cell deadline, requeue, first-result-wins dedup, and
  give-up are exact.
* The ``/work`` HTTP routes, driven through :class:`ReproClient`.
* The channel a worker talks over: one kept-alive connection per client
  thread, the next lease in the push reply, transport failures as
  :class:`ServerError` with status 0.
* A real :class:`~repro.server.worker.Worker` attached to a real server —
  execution end to end, a lost worker's cell being requeued, a runaway
  cell being given up, and the served artifact matching a locally computed
  one modulo volatile keys.
* A real ``repro-serve`` process and the ``repro-worker`` processes it
  spawns: sharing a job with an external worker, respawn, and shutdown.
"""

import contextlib
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro.server
from repro.experiments import BudgetPolicy, SweepRunner, SweepSpec
from repro.experiments import build_document as build_sweep_document
from repro.obs.metrics import counter_value, parse_exposition
from repro.server import JobManager, ReproClient, ServerError
from repro.server import work
from repro.server.app import ReproRequestHandler, ReproServer, make_server
from repro.server.cache import stable_document
from repro.server.work import WorkItem, WorkQueue
from repro.server.worker import Worker, _Heartbeat, execute_lease, failure_record


def tiny_sweep(**overrides):
    defaults = dict(
        name="tiny-worker",
        protocol="one-way-epidemic",
        ns=[8, 16],
        seeds_per_cell=1,
        backend="batch",
        budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def make_items(count=3):
    return [
        WorkItem(
            item_id=f"item-{i}",
            exec_kind="sweep",
            payload={"cell_id": f"cell-{i}", "n": 8, "seeds": [i]},
            cache_key=f"{i:064d}"[:64],
        )
        for i in range(count)
    ]


def record_for(item, **overrides):
    record = {
        "cell_id": item.payload["cell_id"],
        "n": 8,
        "runs": [{"seed": 1}],
        "stats": {},
        "error": None,
        "wall_time_s": 0.1,
    }
    record.update(overrides)
    return record


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# --------------------------------------------------------------------------
# WorkQueue: leases, TTL, requeue, dedup
# --------------------------------------------------------------------------


def test_lease_hands_out_items_fifo_and_tracks_attempts():
    queue = WorkQueue(make_items(2), ttl_s=10.0)
    first = queue.lease("w1")
    second = queue.lease("w2")
    assert first.item.payload["cell_id"] == "cell-0"
    assert second.item.payload["cell_id"] == "cell-1"
    assert first.item.attempts == 1
    assert first.lease_id != second.lease_id
    assert queue.lease("w3") is None  # nothing pending
    snapshot = queue.snapshot()
    assert snapshot["pending"] == 0
    assert snapshot["active_leases"] == {"w1": 1, "w2": 1}


def test_complete_is_first_wins_and_notifies():
    queue = WorkQueue(make_items(1), ttl_s=10.0)
    lease = queue.lease("w1")
    outcome, _ = queue.complete(lease.lease_id, record_for(lease.item))
    assert outcome == "accepted"
    assert queue.finished
    # The same push again is a duplicate, not an error.
    outcome, _ = queue.complete(lease.lease_id, record_for(lease.item))
    assert outcome == "duplicate"
    assert queue.complete("lease-999999-nope", {})[0] == "unknown"


def test_expired_lease_is_requeued_for_another_worker():
    clock = FakeClock()
    queue = WorkQueue(make_items(1), ttl_s=5.0, clock=clock)
    lost = queue.lease("w1")
    clock.now += 5.1
    expired = queue.reap()
    assert [(lease.lease_id, fate) for lease, fate in expired] == [
        (lost.lease_id, "requeued")
    ]
    assert queue.requeues == 1
    retry = queue.lease("w2")
    assert retry.item.payload["cell_id"] == "cell-0"
    assert retry.item.attempts == 2
    outcome, _ = queue.complete(retry.lease_id, record_for(retry.item))
    assert outcome == "accepted"


def test_heartbeat_extends_only_active_leases():
    clock = FakeClock()
    queue = WorkQueue(make_items(1), ttl_s=5.0, clock=clock)
    lease = queue.lease("w1")
    clock.now += 4.0
    assert queue.heartbeat(lease.lease_id) is not None
    clock.now += 4.0  # 8s after grant, but only 4 since the heartbeat
    assert queue.reap() == []
    clock.now += 2.0
    assert len(queue.reap()) == 1
    assert queue.heartbeat(lease.lease_id) is None  # expired stays expired
    assert queue.heartbeat("lease-000000-void") is None


def test_late_result_from_expired_lease_wins_if_still_unresolved():
    clock = FakeClock()
    queue = WorkQueue(make_items(1), ttl_s=5.0, clock=clock)
    zombie = queue.lease("w1")
    clock.now += 6.0
    queue.reap()  # requeued
    # The zombie finished anyway and pushes before anyone re-leases.
    outcome, _ = queue.complete(zombie.lease_id, record_for(zombie.item))
    assert outcome == "accepted"
    assert queue.lease("w2") is None  # the requeued copy was claimed back
    assert queue.finished


def test_item_gives_up_after_max_attempts_with_synthetic_record():
    clock = FakeClock()
    queue = WorkQueue(make_items(1), ttl_s=5.0, max_attempts=2, clock=clock)
    for attempt in (1, 2):
        lease = queue.lease(f"blackhole-{attempt}")
        assert lease.item.attempts == attempt
        clock.now += 6.0
        (expired, fate), = queue.reap()
        assert fate == ("requeued" if attempt < 2 else "gave-up")
    record = queue.result(expired.item.item_id)
    assert record["cell_id"] == "cell-0"
    assert "lease expired" in record["error"]
    assert queue.finished
    assert queue.results_in_order() == [record]


def test_heartbeat_is_refused_past_the_cell_deadline_and_the_cell_gives_up():
    clock = FakeClock()
    item = make_items(1)[0]
    item.timeout_s = 2.0
    queue = WorkQueue([item], ttl_s=5.0, clock=clock)  # default max_attempts
    lease = queue.lease("w1")
    assert lease.deadline == lease.granted_at + 2.0 + work.CELL_DEADLINE_GRACE_S
    # A live worker keeps the lease until timeout_s + the grace has passed...
    while clock.now + 4.0 < lease.deadline:
        clock.now += 4.0
        assert queue.heartbeat(lease.lease_id) is not None
        assert queue.reap() == []
    clock.now = lease.deadline
    # ...then heartbeats are refused and the lease runs out its TTL.  The
    # overrun is the cell's fault, so it is given up on the first expiry
    # rather than requeued onto the next worker.
    assert queue.heartbeat(lease.lease_id) is None
    clock.now += 5.0
    assert [(expired.lease_id, fate) for expired, fate in queue.reap()] == [
        (lease.lease_id, "gave-up")
    ]
    assert queue.requeues == 0
    assert queue.lease("w2") is None
    (record,) = queue.results_in_order()
    assert "overran its deadline" in record["error"]
    assert queue.finished


def test_dead_worker_before_the_cell_deadline_is_still_requeued():
    clock = FakeClock()
    item = make_items(1)[0]
    item.timeout_s = 60.0
    queue = WorkQueue([item], ttl_s=5.0, clock=clock)
    lost = queue.lease("w1")
    clock.now += 5.1  # the TTL ran out long before the deadline
    assert [fate for _lease, fate in queue.reap()] == ["requeued"]
    assert queue.lease("w2").item.attempts == 2
    assert lost.deadline > clock.now


def test_abort_stops_leasing_and_answers_gone():
    queue = WorkQueue(make_items(2), ttl_s=10.0)
    lease = queue.lease("w1")
    queue.abort()
    assert queue.lease("w2") is None
    outcome, _ = queue.complete(lease.lease_id, record_for(lease.item))
    assert outcome == "gone"
    assert queue.finished  # aborted counts as finished


def test_queue_validates_parameters():
    with pytest.raises(ValueError):
        WorkQueue([], ttl_s=0.0)
    with pytest.raises(ValueError):
        WorkQueue([], max_attempts=0)


# --------------------------------------------------------------------------
# Worker-side helpers
# --------------------------------------------------------------------------


def test_execute_lease_runs_the_real_sweep_entry_point():
    spec = tiny_sweep(ns=[8])
    from repro.experiments.runner import cell_payload

    payload = cell_payload(spec, spec.cells()[0])
    record = execute_lease(
        {"lease_id": "x", "kind": "sweep", "payload": payload}
    )
    assert record["cell_id"] == payload["cell_id"]
    assert not record.get("error")
    assert record["runs"]


def test_execute_lease_answers_unknown_kind_with_failure_record():
    record = execute_lease(
        {"lease_id": "x", "kind": "alien", "payload": {"cell_id": "c1"}}
    )
    assert record["cell_id"] == "c1"
    assert "alien" in record["error"]


def test_failure_record_mirrors_pool_failure_shape():
    record = failure_record({"cell_id": "c", "n": 8, "seeds": [1]}, "boom")
    assert record["error"] == "boom"
    assert record["runs"] == [] and record["stats"] is None


# --------------------------------------------------------------------------
# End to end over HTTP
# --------------------------------------------------------------------------


@pytest.fixture
def served_manager(serve):
    """A server (short TTL) plus a client; no worker attached yet."""
    manager = JobManager(lease_ttl_s=1.0)
    return manager, serve(manager)


def test_lease_routes_when_no_batch_is_running(served_manager):
    _manager, client = served_manager
    assert client.lease("w1") is None  # 204: nothing to do
    with pytest.raises(ServerError) as excinfo:
        client.heartbeat("lease-000000-void")
    assert excinfo.value.status == 404
    outcome = client.push_result("lease-000000-void", {"cell_id": "c"})
    assert outcome["outcome"] == "gone"
    assert not outcome["accepted"]


def test_remote_worker_executes_a_job_end_to_end(served_manager):
    manager, client = served_manager
    spec = tiny_sweep()
    job_id = client.submit("sweep", spec.to_dict())["job_id"]

    worker = Worker(client, worker_id="wt-1", poll_s=0.05, max_idle_s=3.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    status = client.wait(job_id, timeout_s=120.0)
    thread.join(timeout=30)

    assert status["state"] == "done"
    assert status["progress"]["remote_cells"] == 2
    assert status["progress"]["failed_cells"] == []
    assert worker.accepted == 2

    served = client.artifact(job_id)
    local = build_sweep_document(
        spec, SweepRunner(spec, workers=1).run(), workers=1
    )
    assert stable_document(served) == stable_document(local)

    metrics = parse_exposition(client.metrics())
    assert counter_value(metrics, "repro_leases_granted_total", worker="wt-1") == 2
    assert (
        counter_value(metrics, "repro_lease_results_total", outcome="accepted")
        == 2
    )


def test_abandoned_lease_is_requeued_and_job_still_completes(served_manager):
    manager, client = served_manager
    spec = tiny_sweep(ns=[8])
    job_id = client.submit("sweep", spec.to_dict())["job_id"]

    # A doomed "worker" leases the only cell and vanishes without a result.
    deadline_lease = None
    for _ in range(200):
        deadline_lease = client.lease("doomed")
        if deadline_lease is not None:
            break
        threading.Event().wait(0.02)
    assert deadline_lease is not None
    assert deadline_lease["kind"] == "sweep"
    assert deadline_lease["payload"]["cell_id"] == "one-way-epidemic-n8"

    # An honest worker picks the cell up after the 1s TTL expires.
    worker = Worker(client, worker_id="honest", poll_s=0.05, max_idle_s=5.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    status = client.wait(job_id, timeout_s=120.0)
    worker.stop()
    thread.join(timeout=30)

    assert status["state"] == "done"
    assert status["progress"]["failed_cells"] == []
    metrics = parse_exposition(client.metrics())
    assert counter_value(metrics, "repro_leases_expired_total") >= 1
    assert counter_value(metrics, "repro_leases_requeued_total") >= 1
    assert (
        counter_value(metrics, "repro_worker_results_total", worker="honest")
        == 1
    )


def test_wrong_cell_result_is_rejected_and_cell_recovers(served_manager):
    manager, client = served_manager
    spec = tiny_sweep(ns=[8])
    job_id = client.submit("sweep", spec.to_dict())["job_id"]
    lease = None
    for _ in range(200):
        lease = client.lease("confused")
        if lease is not None:
            break
        threading.Event().wait(0.02)
    assert lease is not None
    outcome = client.push_result(
        lease["lease_id"], {"cell_id": "someone-elses-cell", "runs": []}
    )
    assert outcome["outcome"] == "rejected"

    worker = Worker(client, worker_id="honest", poll_s=0.05, max_idle_s=5.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    status = client.wait(job_id, timeout_s=120.0)
    worker.stop()
    thread.join(timeout=30)
    assert status["state"] == "done"
    assert status["progress"]["failed_cells"] == []


def test_runaway_cell_is_given_up_after_its_deadline(serve, monkeypatch):
    """Default attempts, one worker at a time: the hung cell fails once."""
    release = threading.Event()
    execute_cell = SweepRunner.executor

    def hangs_at_n8(payload):
        if payload["n"] != 8:
            return execute_cell(payload)
        assert release.wait(timeout=60)
        return failure_record(payload, "released at teardown")

    monkeypatch.setattr(SweepRunner, "executor", staticmethod(hangs_at_n8))
    monkeypatch.setattr(work, "CELL_DEADLINE_GRACE_S", 0.3)
    manager = JobManager(lease_ttl_s=0.5)
    client = serve(manager)
    overran, workers, threads = [], [], []

    def start_worker(overrun_lease=None):
        # Like repro-serve's supervisor: the wedged worker is replaced.
        if overrun_lease is not None:
            overran.append(overrun_lease)
        worker = Worker(
            client,
            worker_id=f"stuck-{len(workers) + 1}",
            poll_s=0.02,
            on_overrun=start_worker,
        )
        workers.append(worker)
        threads.append(threading.Thread(target=worker.run, daemon=True))
        threads[-1].start()

    start_worker()
    try:
        spec = tiny_sweep(ns=[8, 16], cell_timeout_s=0.2)
        job_id = manager.submit("sweep", spec.to_dict())["job_id"]
        deadline = time.monotonic() + 60
        while manager.status(job_id)["state"] not in ("done", "failed", "cancelled"):
            assert time.monotonic() < deadline, "the runaway cell never resolved"
            time.sleep(0.05)
        status = manager.status(job_id)
        assert status["state"] == "done"
        assert status["progress"]["failed_cells"] == ["one-way-epidemic-n8"]
        record = manager.artifact(job_id)["cells"][0]
        assert "overran its deadline" in record["error"]
        events, _ended = manager.events_after(job_id, -1)
        sources = {
            e["data"]["cell_id"]: e["data"]["source"]
            for e in events
            if e["event"] == "cell"
        }
        assert sources == {
            "one-way-epidemic-n8": "lease-expired",
            "one-way-epidemic-n16": "worker:stuck-2",
        }
        # Given up on its first expiry, not requeued onto the next worker.
        expiries = [
            e["data"]
            for e in events
            if e["event"] == "lease" and e["data"]["state"] == "expired"
        ]
        assert [(e["cell_id"], e["requeued"]) for e in expiries] == [
            ("one-way-epidemic-n8", False)
        ]
        assert [lease["cell_id"] for lease in overran] == ["one-way-epidemic-n8"]
        assert overran[0]["deadline_s"] == pytest.approx(0.5)
    finally:
        release.set()
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=30)


# --------------------------------------------------------------------------
# The worker channel: kept-alive connections, the next lease in the push
# --------------------------------------------------------------------------


@contextlib.contextmanager
def raw_peer(accept):
    """A bare TCP listener on an ephemeral port; yields its URL.

    With ``accept`` it accepts every connection, reads the request and
    closes the connection without a reply; without, it never accepts, so
    a request is sent and never answered.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def close_each():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            with connection:
                connection.recv(65536)

    if accept:
        threading.Thread(target=close_each, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()


@pytest.mark.parametrize("accept", [True, False], ids=["closing", "silent"])
def test_transport_failures_surface_as_status_0(accept):
    with raw_peer(accept) as url:
        client = ReproClient(url, timeout_s=0.3)
        for _ in range(2):  # on a fresh connection, and after a failed one
            with pytest.raises(ServerError) as excinfo:
                client.lease("w1")
            assert excinfo.value.status == 0


def test_worker_against_a_closing_peer_idles_out_instead_of_raising():
    with raw_peer(accept=True) as url:
        worker = Worker(ReproClient(url, timeout_s=0.3), poll_s=0.02, max_idle_s=0.2)
        assert worker.run() == 0


@pytest.fixture
def accepted(monkeypatch):
    """The peer address of every connection a :class:`ReproServer` accepts."""
    addresses = []
    get_request = ReproServer.get_request

    def counted(server):
        request = get_request(server)
        addresses.append(request[1])
        return request

    monkeypatch.setattr(ReproServer, "get_request", counted)
    return addresses


def handler_threads():
    return {
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def test_sequential_requests_from_one_thread_share_one_connection(serve, accepted):
    client = serve(JobManager())
    for _ in range(5):
        client.healthz()
        assert client.lease("w1") is None
        client.metrics()
        with pytest.raises(ServerError):
            client.status("missing-job")
    assert len(accepted) == 1


def test_a_silent_connection_is_closed_and_its_handler_thread_released(
    serve, monkeypatch
):
    assert ReproRequestHandler.timeout is not None  # shipped with a timeout
    monkeypatch.setattr(ReproRequestHandler, "timeout", 0.2)
    client = serve(JobManager())
    before = handler_threads()
    assert client.healthz()["status"] == "ok"  # the connection stays open
    (handler,) = handler_threads() - before
    handler.join(timeout=10)
    assert not handler.is_alive()


def test_a_request_on_a_connection_the_server_closed_is_sent_again(
    serve, monkeypatch, accepted
):
    monkeypatch.setattr(ReproRequestHandler, "timeout", 0.2)
    client = serve(JobManager())
    for connections in (1, 2, 3):
        before = handler_threads()
        assert client.lease("w1") is None  # a POST with a body
        assert client.push_result("lease-000000-void", {"cell_id": "c"})["outcome"] == "gone"
        assert client.healthz()["status"] == "ok"
        assert len(accepted) == connections
        for handler in handler_threads() - before:
            handler.join(timeout=10)  # the server closed the idle connection


def read_request(reader):
    """Read one HTTP request from a socket file; its request line."""
    line = reader.readline()
    length = 0
    while True:
        header = reader.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    reader.read(length)
    return line


def test_a_post_reset_after_it_was_sent_is_not_sent_again():
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def peer():
        # One kept-alive reply, then read the next request and reset.
        connection, _ = listener.accept()
        reader = connection.makefile("rb")
        seen.append(read_request(reader))
        body = b'{"status": "ok"}'
        connection.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        seen.append(read_request(reader))
        reader.close()
        connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        connection.close()
        # A resent request would arrive on a new connection.
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            with connection, connection.makefile("rb") as reader:
                seen.append(read_request(reader))

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        client = ReproClient(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_s=5.0)
        assert client.healthz() == {"status": "ok"}
        with pytest.raises(ServerError) as excinfo:
            client.submit("sweep", {"name": "once"})
        assert excinfo.value.status == 0
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=10)
    assert seen == [b"GET /healthz HTTP/1.1\r\n", b"POST /jobs HTTP/1.1\r\n"]


def test_heartbeat_end_waits_for_a_beat_in_flight():
    class SlowGone:
        timeout_s = 5.0

        def __init__(self):
            self.out = threading.Event()

        def heartbeat(self, lease_id):
            self.out.set()
            time.sleep(0.3)
            raise ServerError(404, f"no active lease {lease_id!r}")

    client = SlowGone()
    heartbeat = _Heartbeat(client)
    try:
        heartbeat.begin({"lease_id": "lease-000000-slow", "ttl_s": 0.15})
        assert client.out.wait(timeout=10)
        assert heartbeat.end()  # the 404 came back after the cell ended
    finally:
        heartbeat.close()


def test_a_request_body_left_unread_ends_its_connection(serve):
    client = serve(JobManager())
    with pytest.raises(ServerError) as excinfo:
        client._request("POST", "/no/such/route", {"left": "unread"})
    assert excinfo.value.status == 404
    assert client.healthz()["status"] == "ok"


def test_busy_worker_takes_all_but_its_first_lease_from_push_replies(serve):
    manager = JobManager()
    client = serve(manager)
    granted = []
    lease = client.lease

    def counted(worker_id):
        result = lease(worker_id)
        if result is not None:
            granted.append(result["cell_id"])
        return result

    client.lease = counted
    spec = tiny_sweep(ns=[8, 12, 16, 24, 32])
    job_id = client.submit("sweep", spec.to_dict())["job_id"]
    worker = Worker(client, worker_id="solo", poll_s=0.02)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        status = client.wait(job_id, timeout_s=120.0)
    finally:
        worker.stop()
        thread.join(timeout=30)
    assert status["state"] == "done"
    assert status["progress"]["remote_cells"] == 5
    assert worker.accepted == 5
    assert granted == ["one-way-epidemic-n8"]
    metrics = parse_exposition(client.metrics())
    assert counter_value(metrics, "repro_leases_granted_total", worker="solo") == 5


def wait_for_lease(client, worker_id):
    for _ in range(500):
        lease = client.lease(worker_id)
        if lease is not None:
            return lease
        time.sleep(0.02)
    raise AssertionError("no cell became leasable")


def test_push_reply_carries_next_only_when_asked_and_null_once_the_batch_ends(serve):
    manager = JobManager()
    client = serve(manager)
    outcome = client.push_result("lease-000000-void", {"cell_id": "c"})
    assert set(outcome) == {"lease_id", "outcome", "accepted"}

    # Finished: the last cell's push has no next cell to hand over.
    job_id = client.submit("sweep", tiny_sweep(ns=[8]).to_dict())["job_id"]
    lease = wait_for_lease(client, "manual")
    outcome = client.push_result(
        lease["lease_id"], execute_lease(lease), next_worker="manual"
    )
    assert outcome["outcome"] == "accepted" and outcome["next"] is None
    assert client.wait(job_id, timeout_s=60.0)["state"] == "done"

    # Asked for while cells remain: the next one, granted to that worker.
    job_id = client.submit("sweep", tiny_sweep(ns=[12, 16, 24]).to_dict())["job_id"]
    lease = wait_for_lease(client, "manual")
    outcome = client.push_result(
        lease["lease_id"], execute_lease(lease), next_worker="manual"
    )
    assert outcome["next"]["cell_id"] == "one-way-epidemic-n16"
    assert outcome["next"]["lease_id"] != lease["lease_id"]

    # Aborted: a cancelled job's late push is gone, with nothing next.
    client.cancel(job_id)
    assert client.wait(job_id, timeout_s=60.0)["state"] == "cancelled"
    held = outcome["next"]
    outcome = client.push_result(
        held["lease_id"], execute_lease(held), next_worker="manual"
    )
    assert outcome == {
        "lease_id": held["lease_id"],
        "outcome": "gone",
        "accepted": False,
        "next": None,
    }


def test_kept_alive_posts_do_not_stall_on_delayed_acks(serve):
    client = serve(JobManager())
    record = {"cell_id": "c", "runs": [{"seed": i, "note": "x" * 64} for i in range(50)]}
    assert 3500 < len(repr(record)) < 5000
    client.push_result("lease-000000-void", record)  # connect outside the clock
    started = time.perf_counter()
    for _ in range(50):
        assert client.push_result("lease-000000-void", record)["outcome"] == "gone"
    assert time.perf_counter() - started < 1.0


def test_closed_server_does_not_answer_on_a_kept_alive_connection():
    manager = JobManager()
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        client = ReproClient(f"http://127.0.0.1:{server.server_address[1]}", timeout_s=5.0)
        assert client.healthz()["status"] == "ok"  # the connection stays open
        server.shutdown()
        closing = threading.Thread(target=server.server_close, daemon=True)
        closing.start()
        closing.join(timeout=10)
        assert not closing.is_alive(), "server_close waited on a kept-alive connection"
        with pytest.raises(ServerError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
    finally:
        thread.join(timeout=10)
        manager.close()


# --------------------------------------------------------------------------
# A real repro-serve process and the workers it spawns
# --------------------------------------------------------------------------


#: The ``src/`` directory, so server subprocesses import this tree even
#: when the suite runs without ``PYTHONPATH``.
SRC = os.path.dirname(os.path.dirname(os.path.dirname(repro.server.__file__)))


class ServeProcess:
    """``repro-serve --port 0`` as a subprocess with a drained, searchable log."""

    def __init__(self, *args, own_session=False):
        self.lines = []
        self._cond = threading.Condition()
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            start_new_session=own_session,
        )
        threading.Thread(target=self._drain, daemon=True).start()
        match = self.wait_for(r"listening on (http://\S+)")
        self.client = ReproClient(match.group(1))

    def _drain(self):
        for line in self.process.stdout:
            with self._cond:
                self.lines.append(line)
                self._cond.notify_all()

    def wait_for(self, pattern, start=0, timeout_s=60.0):
        """The first match of ``pattern`` in lines ``start`` onwards."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                for line in self.lines[start:]:
                    match = regex.search(line)
                    if match:
                        return match
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"no {pattern!r} in:\n{''.join(self.lines)}"
                self._cond.wait(remaining)

    def spawned(self, count, start=0):
        """``{worker_id: pid}`` of the first ``count`` spawn lines."""
        pids = {}
        while len(pids) < count:
            match = self.wait_for(r"spawned worker (\S+) \(pid (\d+)\)", start)
            pids[match.group(1)] = int(match.group(2))
            start = self.lines.index(match.string) + 1
        return pids

    def stop(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def session_of(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[3])


def running(pid):
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while any(running(pid) for pid in pids):
        assert time.monotonic() < deadline, f"children still running: {pids}"
        time.sleep(0.05)


def test_mixed_local_and_remote_execution():
    """A spawned worker and an external worker share one job."""
    serve_process = ServeProcess("--workers", "1")
    try:
        client = serve_process.client
        serve_process.spawned(1)
        spec = tiny_sweep(ns=[8, 12, 16, 24])
        job_id = client.submit("sweep", spec.to_dict())["job_id"]
        external = Worker(client, worker_id="external", poll_s=0.01)
        external.stop()  # its push then asks for no next cell
        while not external.run_one():  # one cell, as soon as one is leasable
            time.sleep(0.01)
        status = client.wait(job_id, timeout_s=120.0)
        assert status["state"] == "done"
        assert status["progress"]["remote_cells"] == 4
        assert status["progress"]["failed_cells"] == []
        metrics = parse_exposition(client.metrics())
        by_worker = {
            worker: counter_value(metrics, "repro_worker_results_total", worker=worker)
            for worker in ("local-1", "external")
        }
        assert by_worker["external"] == 1 and by_worker["local-1"] == 3
        served = client.artifact(job_id)
        local = build_sweep_document(
            spec, SweepRunner(spec, workers=1).run(), workers=1
        )
        assert stable_document(served) == stable_document(local)
    finally:
        serve_process.stop()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_spawned_workers_are_respawned_and_stop_with_their_server():
    serve_process = ServeProcess("--workers", "2")
    try:
        pids = serve_process.spawned(2)
        assert set(pids) == {"local-1", "local-2"}
        mark = len(serve_process.lines)
        os.kill(pids["local-1"], signal.SIGKILL)
        respawned = serve_process.spawned(1, start=mark)
        assert list(respawned) == ["local-1"]
        assert respawned["local-1"] != pids["local-1"]
        children = [pids["local-2"], respawned["local-1"]]
        assert all(running(pid) for pid in children)
        serve_process.process.send_signal(signal.SIGTERM)
        assert serve_process.process.wait(timeout=30) == 0
        wait_gone(children)
    finally:
        serve_process.stop()

    # A SIGKILLed server gets no chance to stop its workers: they notice
    # they lost their parent and exit by themselves.
    serve_process = ServeProcess("--workers", "1")
    try:
        children = list(serve_process.spawned(1).values())
        # Past its start-up line the idle worker prints nothing, so only
        # the parent check can notice the server is gone.
        serve_process.wait_for(r"repro-worker local-1: polling")
        serve_process.process.kill()
        serve_process.process.wait(timeout=30)
        wait_gone(children)
    finally:
        serve_process.stop()

    # Ctrl-C at a terminal signals the whole foreground process group.  The
    # spawned workers sit in sessions of their own, so only the server gets
    # it, and it stops them without respawning any.
    serve_process = ServeProcess("--workers", "2", own_session=True)
    try:
        children = list(serve_process.spawned(2).values())
        serve_process.wait_for(r"repro-worker local-2: polling")
        server_session = session_of(serve_process.process.pid)
        assert all(session_of(pid) != server_session for pid in children)
        os.killpg(serve_process.process.pid, signal.SIGINT)
        assert serve_process.process.wait(timeout=30) == 0
        wait_gone(children)
        assert not any("respawning" in line for line in serve_process.lines)
    finally:
        serve_process.stop()


def test_workers_that_keep_exiting_at_once_are_not_respawned_forever(monkeypatch):
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from repro.server import cli

    # Anything but a repro-serve: every lease poll is answered 501, so each
    # spawned worker gives up and exits within moments of its start.
    server = ThreadingHTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setattr(cli, "RESPAWN_CHECK_S", 0.05)
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    )
    lines = []
    local = cli.LocalWorkers(
        f"http://127.0.0.1:{server.server_address[1]}", 1, lines.append
    )
    try:
        deadline = time.monotonic() + 60
        while not any("not respawning" in line for line in lines):
            assert time.monotonic() < deadline, "\n".join(lines)
            time.sleep(0.05)
        time.sleep(0.5)  # several more supervisor passes
        spawns = [line for line in lines if "spawned worker local-1" in line]
        assert len(spawns) == cli.MAX_FAST_EXITS
        assert sum("not respawning" in line for line in lines) == 1
    finally:
        local.stop()
        server.shutdown()
        server.server_close()
