"""The batch backend's dense-regime event loop.

Two contracts pin the loop from outside:

* **Stream pin** — seeded dense runs of the paper's protocols must end on
  the recorded interactions, histogram, state counts, transition calls,
  memo and sampler telemetry and on the recorded state of both RNG
  streams.  The stream fields were recorded before the loop was fused into
  one function (the checkpointed ``count-exact`` and the
  ``count-exact-stable`` churn pins before the one-agent-one-state mode
  came in); any change to how the loop consumes its streams shows up here
  first.  ``transition_calls`` and ``memo`` count work, not the stream,
  and were re-recorded when that mode stopped recording transitions and
  again when it became unrecorded stretches (every event of a stretch is
  evaluated, and the mode is decided at stretch boundaries);
  ``distinct_states`` and the memo's ``interned_keys`` and ``released``
  were re-recorded when dead ids began to be released and the state count
  became the product of the variables' ranges.
* **Draw contract** — the loop draws its agent indices exactly as
  :meth:`~repro.engine.samplers.AgentPairSampler.sample` would from the
  same pair stream.
"""

import hashlib
import random

import pytest

from repro.engine import Simulator
from repro.engine.hooks import TimelineEvent
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
        "distinct_states": 4_608_000,
        "transition_calls": 16418,
        "memo": {
            "interned_keys": 1473, "released": 0, "pairs": 16356, "hits": 43583,
            "misses": 16417, "unrecorded": 0, "switches": 0, "coin_nodes": 319,
        },
        "sampler": _sampler(60_000),
        "rngs": "2610bedf0a5329aacc420b5e78d634f410773ea8c07a1bbfe67d44c17d36123a",
    },
    "count-exact": {
        "interactions": 16_000,
        "live_keys": 64,
        "state_key_counts": "ea251413189e71b763b186851fae784ef3a5f0cb956d69140b1055c39b4946ad",
        "distinct_states": 26_029_817_856_000,
        "transition_calls": 14851,
        "memo": {
            "interned_keys": 182, "released": 6742, "pairs": 560, "hits": 1150,
            "misses": 566, "unrecorded": 14284, "switches": 1, "coin_nodes": 80,
        },
        "sampler": _sampler(16_000),
        "rngs": "a4e5bcc3a33c996a35a8576316d12d1d522ad08a436c9f82b2bea55b48c0e721",
    },
    "approximate-stable": {
        "interactions": 26_624,
        "live_keys": 24,
        "state_key_counts": "1c40a6701b638605bb9a0b03b4ee7d51186424546fdcd5f3ef84c5ab932fd16d",
        "distinct_states": 9_289_728_000,
        "transition_calls": 25582,
        "memo": {
            "interned_keys": 2839, "released": 4110, "pairs": 3865, "hits": 1043,
            "misses": 3865, "unrecorded": 21716, "switches": 339, "coin_nodes": 30,
        },
        "sampler": _sampler(26_624),
        "rngs": "d8471af5d0645e220906c31888aaef416da226f660b8b1ef19bc990e13c65f44",
    },
    "count-exact-checkpointed": {
        "interactions": 23_232,
        "live_keys": 64,
        "state_key_counts": "120230005ad795ef149415a1973ae89f000742c221a4e62b321289bae5ace67c",
        "distinct_states": 1_013_003_899_738_521_600,
        "transition_calls": 22083,
        "memo": {
            "interned_keys": 182, "released": 10401, "pairs": 560, "hits": 1150,
            "misses": 566, "unrecorded": 21516, "switches": 1, "coin_nodes": 80,
        },
        "sampler": _sampler(23_232),
        "rngs": "5f3b81b12e88ab39a80e5d64c7ba6012dce7f2a38bda815e9f10b1a69829d7e2",
    },
    "count-exact-stable": {
        "interactions": 26_624,
        "live_keys": 39,
        "state_key_counts": "47c4eddd732d0499c64f6911f40bbf0d73dbfe1fac0b32f6546b944576e1b51f",
        "distinct_states": 169_292_989_071_360,
        "transition_calls": 26132,
        "memo": {
            "interned_keys": 279, "released": 2803, "pairs": 654, "hits": 493,
            "misses": 656, "unrecorded": 25475, "switches": 9, "coin_nodes": 40,
        },
        "sampler": _sampler(26_624),
        "rngs": "80fbe39943b735c5f74797202a837cd574d36f7dde9a565d6c8839ce79003da3",
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


def test_checkpointed_count_exact_stream_is_pinned():
    # Checkpoints split the run into windows of n interactions each.
    n = 64
    entry = resolve_protocol("count-exact")
    simulator = Simulator(entry.build(n, {}), n, seed=3, backend="batch")
    result = simulator.run(
        max_interactions=60_000, convergence=entry.convergence(n, {}), check_interval=n
    )
    assert result.converged
    assert _stream_fingerprint(simulator, result) == PINNED_STREAMS["count-exact-checkpointed"]


def _through_stable_detect(protocol):
    """Run ``protocol`` through the ``stable-detect`` timeline at n = 32."""
    spec = builtin_scenarios()["stable-detect"]
    n, seed = 32, 9
    simulator = Simulator(
        resolve_protocol(protocol).build(n, {}), n, seed=seed, backend="batch"
    )
    result = simulator.run(
        max_interactions=spec.budget.budget(n),
        timeline=expand_events(spec.events, n, {}, seed),
    )
    assert [record["kind"] for record in result.extra["timeline"]] == [
        "join", "corrupt", "leave",
    ]
    assert all(record["fired"] for record in result.extra["timeline"])
    return _stream_fingerprint(simulator, result)


def test_dense_stream_through_the_stable_detect_timeline_is_pinned():
    assert _through_stable_detect("approximate-stable") == PINNED_STREAMS["approximate-stable"]


def test_count_exact_stable_stream_through_join_corrupt_and_leave_is_pinned():
    # The join restarts the population, the corruption rewrites clock
    # phases, and the leave swap-removes a slot.
    assert _through_stable_detect("count-exact-stable") == PINNED_STREAMS["count-exact-stable"]


# --------------------------------------------------------------------------
# Toy dense protocols
# --------------------------------------------------------------------------


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _OwnKeys(Protocol):
    """Every agent keeps its own integer key forever: each event is a no-op.

    Not declared pure, so every event calls ``delta_key``, which records
    the population size, whether a leave has reshuffled the slots (two
    population changes so far) and the two pre-event keys.
    """

    name = "own-keys"

    def __init__(self):
        self.backend = None
        self.records = []

    def initial_state(self, agent_id):
        return _Cell(agent_id)

    def transition(self, initiator, responder, rng):
        pass

    def delta_key(self, key_a, key_b, rng):
        backend = self.backend
        self.records.append((backend.n, backend.population_changes >= 2, key_a, key_b))
        return key_a, key_b

    def output(self, state):
        return state.value

    def state_key(self, state):
        return state.value

    def output_key(self, key):
        return key


def _own_keys(n, seed):
    protocol = _OwnKeys()
    simulator = Simulator(protocol, n, seed=seed, backend="batch")
    protocol.backend = simulator.backend
    return simulator, protocol.records


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
    simulator, records = _own_keys(n, seed=n)
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
    leave_rng = random.Random(42)
    simulator, records = _own_keys(n, seed=11)
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
