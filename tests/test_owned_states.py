"""Live states in the batch backend's dense regime.

A dense run with a ``state_from_key`` decoder hands ``delta_key`` live
post-interaction states instead of decoding keys.  One holder keeps them: a
list parallel to the agent array, one state per slot, ``None`` meaning
"decode on next use".  The ``n / 2`` rule only chooses whether an evaluation
is recorded in the memo: at most ``n / 2`` live keys a memo miss is, above
it (unrecorded mode) nothing is.  A switch moves no state.

Four contracts pin that from outside:

* **Differential** — a run ends on the same fingerprint as the same run
  whose ``delta_key`` drops the handed states and decodes both keys on
  every transition: histogram, interactions, transition calls, memo
  telemetry, observed state space and the state of both RNG streams.
* **Bound** — in both modes the slot list has one entry per agent and
  every held state encodes its slot's key, through the dense loop, ``join``,
  ``leave``, ``corrupt_histogram`` and ``restart_population``; runs that
  hold no states (lifted adapter, pruning regime, ``delta_key`` override)
  have no slot list.
* **Rule** — the mode follows live keys across ``n / 2`` both ways, within
  one advance window, and keeps the held states across each switch, so
  runs that flap near ``n / 2`` still decode rarely.
* **Boundary** — every evaluated transition still calls the protocol
  instance's ``delta_key``, with the two states as extra positional
  arguments, so a wrapper installed on the instance sees them all.
"""

import hashlib
import random

import pytest

from repro.counting.search import SearchWithGivenLeader
from repro.engine import Simulator
from repro.engine.protocol import Protocol
from repro.experiments.registry import resolve_protocol
from repro.scenarios.builtin import builtin_scenarios
from repro.scenarios.events import expand_events


def _decode_every_transition(protocol):
    """Make ``protocol``'s ``delta_key`` ignore the states it is handed."""
    original = protocol.delta_key
    protocol.delta_key = lambda key_a, key_b, rng, *states: original(key_a, key_b, rng)
    return protocol


def _count_decodes(protocol):
    """Count ``protocol``'s ``state_from_key`` calls in ``protocol.decodes``."""
    original = protocol.state_from_key
    protocol.decodes = 0

    def counted(key):
        protocol.decodes += 1
        return original(key)

    protocol.state_from_key = counted
    return protocol


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
    """One slot state per agent, each held state under its slot's key."""
    states = backend._states
    if backend._decode is None:
        assert states is None
        return
    assert len(states) == len(backend._agents) == backend.n
    keys = backend._keys
    state_key = backend.protocol.state_key
    for slot, state in enumerate(states):
        if state is not None:
            assert state_key(state) == keys[backend._agents[slot]]


def _window(build, n, window, seed):
    def run(protocol_hook):
        simulator = Simulator(protocol_hook(build(n)), n, seed=seed, backend="batch")
        return simulator, simulator.run(max_interactions=window)

    return run


def _registered(name):
    return lambda n: resolve_protocol(name).build(n, {})


def _stable_detect(protocol_hook):
    spec = builtin_scenarios()["stable-detect"]
    n, seed = 32, 9
    simulator = Simulator(
        protocol_hook(resolve_protocol(spec.protocol).build(n, {})), n, seed=seed,
        backend="batch",
    )
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
    held_simulator, held_result = run(_count_decodes)
    decoded_simulator, decoded_result = run(_decode_every_transition)
    backend = held_simulator.backend
    assert not backend._prunes
    assert backend._decode is not None
    assert _fingerprint(held_simulator, held_result) == _fingerprint(
        decoded_simulator, decoded_result
    )
    # Held states replaced decoding: fewer than two decodes per evaluation.
    assert backend.protocol.decodes < 2 * held_result.extra["transition_calls"]
    _assert_bounded(backend)


@pytest.mark.parametrize("name", ["approximate-stable-stable-detect", "search"])
def test_flapping_runs_keep_their_held_states_across_switches(name):
    # Both runs switch modes ~500 times; a switch that dropped the held
    # states made them decode on most evaluations.
    simulator, result = DIFFERENTIAL_RUNS[name](_count_decodes)
    assert result.extra["telemetry"]["memo"]["switches"] > 100
    assert 4 * simulator.backend.protocol.decodes < result.extra["transition_calls"]


def test_owned_ids_stay_live_after_every_event():
    # One interaction per window: dense streams do not depend on where
    # windows end, so this is the stream of one 3,000-interaction window.
    n = 32
    modes = set()
    simulator = Simulator(
        resolve_protocol("count-exact").build(n, {}), n, seed=2, backend="batch"
    )
    backend = simulator.backend
    while backend.interactions < 3_000:
        backend.advance_to(backend.interactions + 1)
        _assert_bounded(backend)
        modes.add("recorded" if backend._recording else "unrecorded")
    assert backend.interactions == 3_000
    assert modes == {"recorded", "unrecorded"}


def test_population_changes_drop_owned_states_of_dead_ids():
    n = 32
    simulator = Simulator(
        resolve_protocol("count-exact").build(n, {}), n, seed=4, backend="batch"
    )
    simulator.run(max_interactions=4_000)
    backend = simulator.backend
    assert not backend._recording and any(backend._states)
    rng = random.Random(1)
    backend.leave(n - 12, rng)
    _assert_bounded(backend)
    backend.join(8)
    _assert_bounded(backend)
    assert backend._states[-8:] == [None] * 8
    victim_key = next(iter(backend.state_key_counts()))
    assert backend.corrupt_histogram(5, lambda key, rng: victim_key, rng) <= 5
    _assert_bounded(backend)
    backend.advance_to(backend.interactions + 500)
    _assert_bounded(backend)
    backend.restart_population()
    assert backend._states == [None] * backend.n
    # The restarted population has one live key: the next evaluation leaves
    # the mode, and memo misses fill the slots again.
    backend.advance_to(backend.interactions + 200)
    assert backend._recording and any(backend._states)
    _assert_bounded(backend)
    # The same operations in the memo regime.
    backend.join(4)
    _assert_bounded(backend)
    backend.leave(6, rng)
    _assert_bounded(backend)
    victim_key = next(iter(backend.state_key_counts()))
    backend.corrupt_histogram(5, lambda key, rng: victim_key, rng)
    _assert_bounded(backend)
    backend.advance_to(backend.interactions + 200)
    _assert_bounded(backend)


def test_lifted_and_pruning_runs_keep_no_owned_states():
    n = 32
    relaxed = Simulator(
        resolve_protocol("approximate-stable").build(n, {"relaxed_output": True}),
        n,
        seed=3,
        backend="batch",
    )
    relaxed.run(max_interactions=4_000)
    pruning = Simulator(
        resolve_protocol("backup-exact").build(n, {}), n, seed=3, backend="batch"
    )
    pruning.run(max_interactions=20_000)
    assert relaxed.backend._lifted is not None
    assert pruning.backend._prunes
    for backend in (relaxed.backend, pruning.backend):
        assert backend._decode is None
        assert backend._states is None
        assert backend.memo_stats()["unrecorded"] == backend.memo_stats()["switches"] == 0


# --------------------------------------------------------------------------
# The rule, on a toy protocol
# --------------------------------------------------------------------------


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _SpreadThenMax(Protocol):
    """Every agent starts at 0 and draws a 20-bit value when it first
    initiates, so live keys rise towards n; an initiator then adopts a larger
    responder value with probability 1/4, so they fall back to one."""

    name = "spread-then-max"
    pure_key_transitions = True

    def initial_state(self, agent_id):
        return _Cell(0)

    def transition(self, initiator, responder, rng):
        if initiator.value == 0:
            initiator.value = 1 + rng.getrandbits(20)
        elif responder.value > initiator.value and rng.getrandbits(2) == 0:
            initiator.value = responder.value

    def output(self, state):
        return state.value

    def state_key(self, state):
        return state.value

    def state_from_key(self, key):
        return _Cell(key)

    def output_key(self, key):
        return key


@pytest.mark.parametrize("seed", [0, 3])
def test_the_mode_follows_live_keys_across_half_of_n_within_one_window(seed):
    n = 32
    modes = []
    live = []
    held = []

    def build(protocol):
        return Simulator(protocol, n, seed=seed, backend="batch").backend

    # Stepped one interaction at a time to read every event; the reference
    # below runs the same stream as one window.
    backend = build(_SpreadThenMax())
    while backend.interactions < 4_000 and not backend.terminal:
        backend.advance_to(backend.interactions + 1)
        _assert_bounded(backend)
        modes.append(not backend._recording)
        live.append(len(backend._counts))
        held.append(list(backend._states))
    assert backend.terminal and len(backend._counts) == 1
    flips = [index for index in range(1, len(modes)) if modes[index] != modes[index - 1]]
    assert len(flips) == backend.memo_stats()["switches"] == 2
    entered, left = flips
    assert 2 * live[entered - 1] > n and 2 * live[left - 1] <= n
    # A switch moves no state: only the switching event's two slots change.
    for flip in flips:
        before, after = held[flip - 1], held[flip]
        assert sum(state is not None for state in before) > n // 2
        assert sum(old is not new for old, new in zip(before, after)) <= 2
    # The same run, decoding every transition, ends on the same streams.
    reference = build(_decode_every_transition(_SpreadThenMax()))
    reference.advance_to(4_000)  # one window, no checkpoints
    assert reference.terminal
    assert reference.interactions == backend.interactions
    assert reference.state_key_counts() == backend.state_key_counts()
    assert reference.memo_stats() == backend.memo_stats()
    assert reference._agent_rng.getstate() == backend._agent_rng.getstate()
    assert reference._pair_rng.getstate() == backend._pair_rng.getstate()


def test_an_instance_level_delta_key_wrapper_sees_every_miss():
    # Benchmarks time the key-level transition by wrapping the instance's
    # delta_key before the backend binds it: every evaluation, from a memo
    # miss or in unrecorded mode, must still cross that wrapper.
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
    memo = simulator.backend.memo_stats()
    assert memo["unrecorded"] > 0
    assert len(handed) == result.extra["transition_calls"] > 0
    assert handed.count(3) == memo["misses"] + memo["unrecorded"]
