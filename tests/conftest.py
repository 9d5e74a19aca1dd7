"""Shared test setup: ``src/`` on the path, and the ``serve`` fixture.

The tier-1 command is ``PYTHONPATH=src python -m pytest -x -q``; this
conftest makes the suite also work from a bare ``pytest`` invocation.
"""

import contextlib
import os
import sys
import threading

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture
def serve():
    """Put job managers behind real HTTP servers on ephemeral ports.

    ``serve(manager, workers=0)`` starts the server, attaches ``workers``
    in-thread :class:`~repro.server.worker.Worker` loops (ids
    ``test-worker-1``, ...), and returns a :class:`ReproClient` for it.
    Workers, servers and managers are all stopped at teardown.
    """
    from repro.server import ReproClient
    from repro.server.app import make_server
    from repro.server.worker import Worker

    with contextlib.ExitStack() as stack:

        def start(manager, workers=0):
            stack.callback(manager.close)
            server = make_server("127.0.0.1", 0, manager)
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
            )
            thread.start()
            stack.callback(thread.join, 10)
            stack.callback(server.server_close)
            stack.callback(server.shutdown)
            client = ReproClient(f"http://127.0.0.1:{server.server_address[1]}")
            for index in range(1, workers + 1):
                worker = Worker(client, worker_id=f"test-worker-{index}", poll_s=0.02)
                worker_thread = threading.Thread(target=worker.run, daemon=True)
                worker_thread.start()
                stack.callback(worker_thread.join, 30)
                stack.callback(worker.stop)
            return client

        yield start


@pytest.fixture
def visited_keys():
    """``visited_keys(simulator, keys)``: add each state key the run visits to ``keys``.

    Call it before the run.  Works on both backends: the initial keys at
    once, then both agents' keys after each step (agent backend) or the
    keys each ``delta_key`` evaluation returns (batch backend; a memo hit
    returns keys an earlier evaluation did).  Neither wrapper draws from a
    stream, so the run is the one it would be without them.
    """

    def visit(simulator, keys):
        keys.update(simulator.state_key_counts())
        backend = simulator.backend
        if simulator.backend_name == "agent":
            step = backend.step
            key = simulator.protocol.state_key

            def stepped():
                initiator, responder = step()
                keys.update((key(backend.states[initiator]), key(backend.states[responder])))
                return initiator, responder

            backend.step = stepped
        else:
            delta = backend._delta

            def evaluated(*args):
                new_keys = delta(*args)
                keys.update(new_keys)
                return new_keys

            backend._delta = evaluated

    return visit
