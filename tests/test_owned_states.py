"""Owned states in the batch backend's dense regime.

On a transition-memo miss the dense regime hands ``delta_key`` the live
post-interaction states an earlier miss produced for the two ids, and
decodes an id only when it owns none.  Three contracts pin that from outside:

* **Differential** — a run with the owned map disabled (every miss decodes
  both keys) ends on the same fingerprint as a run with it: histogram,
  interactions, transition calls, memo telemetry, observed state space and
  the state of both RNG streams.  The map is disabled on the test side only,
  by swapping in a dict that drops its writes after construction.
* **Bound** — the owned ids stay a subset of the live ids through the dense
  loop, ``leave``, ``corrupt_histogram`` and ``restart_population``; runs
  that do not take the owned path (lifted adapter, pruning regime) leave
  the map empty.
* **Boundary** — every miss still calls the protocol instance's
  ``delta_key``, with the two states as extra positional arguments, so a
  wrapper installed on the instance sees them all.
"""

import hashlib
import random

import pytest

from repro.counting.search import SearchWithGivenLeader
from repro.engine import Simulator
from repro.engine.hooks import CallbackHook
from repro.experiments.registry import resolve_protocol
from repro.scenarios.builtin import builtin_scenarios
from repro.scenarios.events import expand_events


class _DropWrites(dict):
    """An owned map that never keeps a state: every miss decodes."""

    def __setitem__(self, key, value):
        pass

    def setdefault(self, key, default=None):
        return default


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fingerprint(simulator, result):
    backend = simulator.backend
    return {
        "interactions": result.interactions,
        "state_key_counts": _digest(sorted(backend.state_key_counts().items(), key=repr)),
        "state_space": backend.state_space.as_dict(),
        "transition_calls": result.extra["transition_calls"],
        "memo": result.extra["telemetry"]["memo"],
        "rngs": _digest((backend._agent_rng.getstate(), backend._pair_rng.getstate())),
    }


def _assert_bounded(backend):
    assert set(backend._owned) <= set(backend._counts)


def _window(build, n, window, seed):
    def run(owned):
        simulator = Simulator(build(n), n, seed=seed, backend="batch")
        if not owned:
            simulator.backend._owned = _DropWrites()
        return simulator, simulator.run(max_interactions=window)

    return run


def _registered(name):
    return lambda n: resolve_protocol(name).build(n, {})


def _stable_detect(owned):
    spec = builtin_scenarios()["stable-detect"]
    n, seed = 32, 9
    simulator = Simulator(
        resolve_protocol(spec.protocol).build(n, {}), n, seed=seed, backend="batch"
    )
    if not owned:
        simulator.backend._owned = _DropWrites()
    result = simulator.run(
        max_interactions=spec.budget.budget(n),
        timeline=expand_events(spec.events, n, {}, seed),
    )
    assert [record["kind"] for record in result.extra["timeline"]] == [
        "join", "corrupt", "leave",
    ]
    return simulator, result


DIFFERENTIAL_RUNS = {
    "approximate": _window(_registered("approximate"), 64, 20_000, 5),
    "count-exact": _window(_registered("count-exact"), 32, 8_000, 5),
    "count-exact-stable": _window(_registered("count-exact-stable"), 32, 8_000, 5),
    "approximate-stable-stable-detect": _stable_detect,
    "search": _window(lambda n: SearchWithGivenLeader(), 48, 20_000, 5),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_RUNS))
def test_owned_states_match_decoding_every_miss(name):
    run = DIFFERENTIAL_RUNS[name]
    owned_simulator, owned_result = run(owned=True)
    decoded_simulator, decoded_result = run(owned=False)
    assert not owned_simulator.backend._prunes
    assert owned_simulator.backend._decode is not None
    # The owned path was taken, and the decoded run never kept a state.
    assert owned_simulator.backend._owned
    assert not decoded_simulator.backend._owned
    assert _fingerprint(owned_simulator, owned_result) == _fingerprint(
        decoded_simulator, decoded_result
    )
    _assert_bounded(owned_simulator.backend)


def test_owned_ids_stay_live_after_every_event():
    n = 32
    checked = []

    def check(sim, *keys):
        _assert_bounded(sim.backend)
        checked.append(keys)

    simulator = Simulator(
        resolve_protocol("count-exact").build(n, {}),
        n,
        seed=2,
        backend="batch",
        hooks=[CallbackHook(on_batch_event=check)],
    )
    simulator.run(max_interactions=3_000)
    assert len(checked) == 3_000
    assert simulator.backend._owned


def test_population_changes_drop_owned_states_of_dead_ids():
    n = 32
    simulator = Simulator(
        resolve_protocol("count-exact").build(n, {}), n, seed=4, backend="batch"
    )
    simulator.run(max_interactions=4_000)
    backend = simulator.backend
    rng = random.Random(1)
    backend.leave(n - 4, rng)
    _assert_bounded(backend)
    backend.join(8)
    fresh_key = next(iter(backend.state_key_counts()))
    backend.corrupt_histogram(12, lambda key, rng: fresh_key, rng)
    _assert_bounded(backend)
    backend.advance_to(backend.interactions + 500)
    assert backend._owned
    _assert_bounded(backend)
    backend.restart_population()
    assert backend._owned == {}


def test_lifted_and_pruning_runs_keep_no_owned_states():
    n = 32
    relaxed = Simulator(
        resolve_protocol("approximate-stable").build(n, {"relaxed_output": True}),
        n,
        seed=3,
        backend="batch",
    )
    relaxed.run(max_interactions=4_000)
    assert relaxed.backend._lifted is not None
    assert relaxed.backend._decode is None
    assert relaxed.backend._owned == {}

    pruning = Simulator(
        resolve_protocol("backup-exact").build(n, {}), n, seed=3, backend="batch"
    )
    pruning.run(max_interactions=20_000)
    assert pruning.backend._prunes
    assert pruning.backend._decode is None
    assert pruning.backend._owned == {}


def test_an_instance_level_delta_key_wrapper_sees_every_miss():
    # Benchmarks time the key-level transition by wrapping the instance's
    # delta_key before the backend binds it: every miss, owned states or
    # not, must still cross that wrapper.
    n = 32
    protocol = resolve_protocol("count-exact").build(n, {})
    original = protocol.delta_key
    handed = []

    def wrapper(key_a, key_b, *rest):
        handed.append(len(rest))
        return original(key_a, key_b, *rest)

    protocol.delta_key = wrapper
    simulator = Simulator(protocol, n, seed=6, backend="batch")
    result = simulator.run(max_interactions=4_000)
    assert len(handed) == result.extra["transition_calls"] > 0
    assert handed.count(3) == simulator.backend.memo_stats()["misses"]
