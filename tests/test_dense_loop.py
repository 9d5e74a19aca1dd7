"""The batch backend's dense-regime event loop.

Three contracts pin the loop from outside:

* **Stream pin** — seeded dense runs of the paper's protocols must end on
  the recorded interactions, histogram, state counts, transition calls,
  memo and sampler telemetry and on the recorded state of both RNG
  streams.  The expected values were recorded before the loop was fused
  into one function; any change to how the loop consumes its streams
  shows up here first.
* **Hooks mid-window** — ``on_batch_event`` hooks see the event already
  counted, and a hook that leaves the backend terminal ends the window.
* **Draw contract** — the loop draws its agent indices exactly as
  :meth:`~repro.engine.samplers.AgentPairSampler.sample` would from the
  same pair stream.
"""

import hashlib
import random
from collections import Counter

import pytest

from repro.engine import Simulator
from repro.engine.hooks import CallbackHook, FailureInjectionHook, TimelineEvent
from repro.engine.protocol import Protocol
from repro.engine.samplers import AgentPairSampler
from repro.experiments.registry import resolve_protocol
from repro.scenarios.builtin import builtin_scenarios
from repro.scenarios.events import expand_events


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _stream_fingerprint(simulator, result):
    backend = simulator.backend
    telemetry = result.extra["telemetry"]
    counts = backend.state_key_counts()
    return {
        "interactions": result.interactions,
        "live_keys": len(counts),
        "state_key_counts": _digest(sorted(counts.items(), key=repr)),
        "distinct_states": result.distinct_states,
        "transition_calls": result.extra["transition_calls"],
        "memo": telemetry["memo"],
        "sampler": telemetry["sampler"],
        "rngs": _digest((backend._agent_rng.getstate(), backend._pair_rng.getstate())),
    }


def _sampler(draws):
    return {"regime": "dense", "strategy": "agent-array", "draws": draws}


PINNED_STREAMS = {
    "approximate": {
        "interactions": 60_000,
        "live_keys": 19,
        "state_key_counts": "35b2f936c01afa44aa3121c719475be13e7f0f945fbd7a3609b08b63b596b328",
        "distinct_states": 1473,
        "transition_calls": 16418,
        "memo": {
            "interned_keys": 1473, "pairs": 16356, "hits": 43583, "misses": 16417,
            "coin_nodes": 319,
        },
        "sampler": _sampler(60_000),
        "rngs": "2610bedf0a5329aacc420b5e78d634f410773ea8c07a1bbfe67d44c17d36123a",
    },
    "count-exact": {
        "interactions": 16_000,
        "live_keys": 64,
        "state_key_counts": "ea251413189e71b763b186851fae784ef3a5f0cb956d69140b1055c39b4946ad",
        "distinct_states": 8179,
        "transition_calls": 14739,
        "memo": {
            "interned_keys": 8179, "pairs": 14729, "hits": 1262, "misses": 14738,
            "coin_nodes": 908,
        },
        "sampler": _sampler(16_000),
        "rngs": "a4e5bcc3a33c996a35a8576316d12d1d522ad08a436c9f82b2bea55b48c0e721",
    },
    "approximate-stable": {
        "interactions": 26_624,
        "live_keys": 24,
        "state_key_counts": "1c40a6701b638605bb9a0b03b4ee7d51186424546fdcd5f3ef84c5ab932fd16d",
        "distinct_states": 6444,
        "transition_calls": 21593,
        "memo": {
            "interned_keys": 6444, "pairs": 21589, "hits": 5032, "misses": 21592,
            "coin_nodes": 141,
        },
        "sampler": _sampler(26_624),
        "rngs": "d8471af5d0645e220906c31888aaef416da226f660b8b1ef19bc990e13c65f44",
    },
}


@pytest.mark.parametrize(
    "name,n,window", [("approximate", 256, 60_000), ("count-exact", 64, 16_000)]
)
def test_dense_window_streams_are_pinned(name, n, window):
    simulator = Simulator(resolve_protocol(name).build(n, {}), n, seed=3, backend="batch")
    result = simulator.run(max_interactions=window)
    assert not simulator.backend._prunes
    assert _stream_fingerprint(simulator, result) == PINNED_STREAMS[name]


def test_dense_stream_through_the_stable_detect_timeline_is_pinned():
    spec = builtin_scenarios()["stable-detect"]
    n, seed = 32, 9
    simulator = Simulator(
        resolve_protocol(spec.protocol).build(n, {}), n, seed=seed, backend="batch"
    )
    result = simulator.run(
        max_interactions=spec.budget.budget(n),
        timeline=expand_events(spec.events, n, {}, seed),
    )
    assert [record["kind"] for record in result.extra["timeline"]] == [
        "join", "corrupt", "leave",
    ]
    assert all(record["fired"] for record in result.extra["timeline"])
    assert _stream_fingerprint(simulator, result) == PINNED_STREAMS["approximate-stable"]


# --------------------------------------------------------------------------
# Toy dense protocols
# --------------------------------------------------------------------------


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _KeyedToy(Protocol):
    """Dense-regime toy over integer keys; subclasses define ``delta_key``."""

    pure_key_transitions = True

    def transition(self, initiator, responder, rng):
        initiator.value, responder.value = self.delta_key(
            initiator.value, responder.value, rng
        )

    def output(self, state):
        return state.value

    def state_key(self, state):
        return state.value

    def output_key(self, key):
        return key


class _Collapsible(_KeyedToy):
    """Keys 1-5 churn with a coin; key 0, which only a corruption writes,
    is a coin-free no-op with itself."""

    name = "collapsible"

    def initial_state(self, agent_id):
        return _Cell(1 + agent_id % 4)

    def delta_key(self, key_a, key_b, rng):
        if key_a == 0 and key_b == 0:
            return 0, 0
        return (key_a + key_b) % 5 + 1, (key_a * key_b + rng.getrandbits(1)) % 5 + 1


def test_a_hook_that_collapses_the_population_ends_the_window():
    n = 24
    seen = []
    corruption = FailureInjectionHook(
        at_interaction=1_234, corrupt_key=lambda key, rng: 0, victims=n, seed=5
    )
    recorder = CallbackHook(on_batch_event=lambda sim, *keys: seen.append(sim.interactions))
    simulator = Simulator(
        _Collapsible(), n, seed=8, backend="batch", hooks=[recorder, corruption]
    )
    backend = simulator.backend
    # One window well past the corruption: only the hook can end it early.
    backend.advance_to(50_000)
    assert corruption.fired
    assert backend.terminal
    assert backend.interactions == 1_234
    assert backend.state_key_counts() == Counter({0: n})
    # Every hook saw its own event already counted.
    assert seen == list(range(1, 1_235))
    assert backend.applied_events == 1_234
    assert backend.counter.total == 1_234


def test_hooks_that_reshape_the_population_mid_window_are_pinned():
    # A hook may restart, grow or shrink the population between two events
    # of one window; the loop must carry on over the new arrays.
    n = 24
    churn_rng = random.Random(3)

    def reshape(sim, *keys):
        if sim.interactions == 500:
            sim.backend.restart_population()
        elif sim.interactions == 800:
            sim.backend.join(3)
        elif sim.interactions == 900:
            sim.backend.leave(5, churn_rng)

    simulator = Simulator(
        _Collapsible(), n, seed=4, backend="batch", hooks=[CallbackHook(on_batch_event=reshape)]
    )
    backend = simulator.backend
    backend.advance_to(3_000)
    assert backend.n == 22 and len(backend._agents) == 22
    assert Counter(backend._agents) == backend._counts
    assert {
        "interactions": backend.interactions,
        "state_key_counts": dict(sorted(backend.state_key_counts().items())),
        "memo": backend.memo_stats(),
        "rngs": _digest((backend._agent_rng.getstate(), backend._pair_rng.getstate())),
    } == {
        "interactions": 3_000,
        "state_key_counts": {1: 6, 2: 4, 3: 3, 4: 2, 5: 7},
        "memo": {"interned_keys": 5, "pairs": 25, "hits": 2950, "misses": 50, "coin_nodes": 25},
        "rngs": "e07301508de2a7441ee04d7be81d218d1f50a7cafe1b4c02812b89d8667532e2",
    }


class _OwnKeys(_KeyedToy):
    """Every agent keeps its own key forever: each event is a no-op."""

    name = "own-keys"

    def initial_state(self, agent_id):
        return _Cell(agent_id)

    def delta_key(self, key_a, key_b, rng):
        return key_a, key_b


def _reference_pairs(pair_state, records, final_agents):
    """The ``(key_a, key_b)`` sequence ``AgentPairSampler.sample`` implies.

    Before the first leave every slot holds its agent's own key (joins
    append fresh keys); afterwards the slots stay as the leave left them.
    """
    rng = random.Random()
    rng.setstate(pair_state)
    sampler = None
    expected = []
    for n, left, _, _ in records:
        if sampler is None or sampler.n != n:
            sampler = AgentPairSampler(n)
        initiator, responder = sampler.sample(rng)
        if left:
            expected.append((final_agents[initiator], final_agents[responder]))
        else:
            expected.append((initiator, responder))
    return expected


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_the_loop_draws_the_agent_pair_sampler_sequence(n):
    records = []
    hook = CallbackHook(
        on_batch_event=lambda sim, a, b, new_a, new_b: records.append((sim.n, False, a, b))
    )
    simulator = Simulator(_OwnKeys(), n, seed=n, backend="batch", hooks=[hook])
    backend = simulator.backend
    pair_state = backend._pair_rng.getstate()
    backend.advance_to(500)
    backend.advance_to(1_000)
    assert len(records) == 1_000
    expected = _reference_pairs(pair_state, records, backend._agents)
    assert [(a, b) for _, _, a, b in records] == expected
    assert backend.sampler_stats() == _sampler(1_000)


def test_the_loop_follows_the_sampler_through_a_timeline_join_and_leave():
    n = 7
    records = []
    leave_rng = random.Random(42)
    hook = CallbackHook(
        on_batch_event=lambda sim, a, b, new_a, new_b: records.append(
            (sim.n, sim.backend.population_changes >= 2, a, b)
        )
    )
    simulator = Simulator(_OwnKeys(), n, seed=11, backend="batch", hooks=[hook])
    backend = simulator.backend
    pair_state = backend._pair_rng.getstate()
    timeline = [
        TimelineEvent(at=300, kind="join", apply=lambda sim: sim.backend.join(5)),
        TimelineEvent(at=700, kind="leave", apply=lambda sim: sim.backend.leave(4, leave_rng)),
    ]
    result = simulator.run(max_interactions=1_200, timeline=timeline)
    assert result.interactions == 1_200
    assert [n for n, _, _, _ in records[299:301]] == [7, 12]
    assert [n for n, _, _, _ in records[699:701]] == [12, 8]
    # The leave swap-removed slots, so later draws read shuffled keys.
    assert backend._agents != list(range(8))
    expected = _reference_pairs(pair_state, records, backend._agents)
    assert [(a, b) for _, _, a, b in records] == expected
    assert backend.sampler_stats() == _sampler(1_200)
