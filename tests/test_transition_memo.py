"""The batch backend's transition memo on interned key ids.

A protocol declaring ``pure_key_transitions`` has its key-level transitions
memoised per id pair, with one branch per drawn coin value; a hit draws the
same coin bits from the agent stream that ``delta_key`` would.  So a run
with the memo must be *stream-identical* to one that calls ``delta_key`` on
every event — same interactions, histogram, state space and agent-stream
state — which is what these tests pin, on the paper's protocols and on toy
protocols with nested coins.
"""

from collections import Counter

import pytest

from repro.engine import SimulationError, Simulator, simulate
from repro.engine.hooks import CallbackHook
from repro.engine.protocol import Protocol
from repro.experiments.registry import resolve_protocol
from repro.scenarios.builtin import builtin_scenarios
from repro.scenarios.events import expand_events


def _run(protocol, n, seed, budget, pure, timeline=()):
    """Run the batch backend, with the memo or bypassing it."""
    if not pure:
        protocol.pure_key_transitions = False  # instance-level bypass
    simulator = Simulator(protocol, n, seed=seed, backend="batch")
    result = simulator.run(max_interactions=budget, timeline=timeline)
    return simulator, result


def _fingerprint(simulator, result):
    backend = simulator.backend
    return {
        "interactions": result.interactions,
        "stopped_reason": result.stopped_reason,
        "state_key_counts": backend.state_key_counts(),
        "distinct_states": result.distinct_states,
        "state_space": result.state_space,
        "agent_rng": backend._agent_rng.getstate(),
        "pair_rng": backend._pair_rng.getstate(),
        "timeline": result.extra.get("timeline"),
    }


@pytest.mark.parametrize(
    "name,n,budget",
    [
        ("approximate", 64, 20_000),
        ("count-exact", 32, 12_000),
        ("backup-exact", 256, 16 * 256**2),
    ],
)
def test_memoised_runs_are_stream_identical_to_bypassed_runs(name, n, budget):
    entry = resolve_protocol(name)
    memoised = _run(entry.build(n, {}), n, 4, budget, pure=True)
    bypassed = _run(entry.build(n, {}), n, 4, budget, pure=False)
    assert _fingerprint(*memoised) == _fingerprint(*bypassed)
    memo = memoised[1].extra["telemetry"]["memo"]
    assert memo["hits"] > 0 and memo["pairs"] > 0
    assert bypassed[1].extra["telemetry"]["memo"]["pairs"] == 0
    # The memo saves delta_key calls and nothing else.
    assert memoised[1].extra["transition_calls"] < bypassed[1].extra["transition_calls"]
    if name == "backup-exact":
        # Pruning regime: the pair kernel drives the loop.
        assert memoised[1].extra["telemetry"]["sampler"]["strategy"] == "factorised"
    else:
        assert memo["coin_nodes"] > 0


def test_stable_hybrid_stays_identical_through_join_corrupt_and_leave():
    spec = builtin_scenarios()["stable-detect"]
    n, seed = 32, 9
    budget = spec.budget.budget(n)
    runs = []
    for pure in (True, False):
        entry = resolve_protocol(spec.protocol)
        timeline = expand_events(spec.events, n, {}, seed)
        runs.append(_run(entry.build(n, {}), n, seed, budget, pure, timeline))
    memoised, bypassed = (_fingerprint(*run) for run in runs)
    assert [record["kind"] for record in memoised["timeline"]] == [
        "join", "corrupt", "leave",
    ]
    assert all(record["fired"] for record in memoised["timeline"])
    assert memoised == bypassed


def test_memo_lookups_account_for_every_applied_event():
    entry = resolve_protocol("approximate")
    result = simulate(
        entry.build(64, {}), 64, seed=2, backend="batch", max_interactions=15_000
    )
    telemetry = result.extra["telemetry"]
    memo = telemetry["memo"]
    applied = telemetry["skips"]["applied_events"]
    # Live keys pass n / 2 now and then at n = 64, and the events evaluated
    # in one-agent-one-state mode are neither hits nor misses.
    assert memo["switches"] > 0
    assert memo["hits"] + memo["misses"] + memo["unrecorded"] == applied
    assert memo["interned_keys"] == result.distinct_states
    # The dense loop times whole windows, but every phase still counts one
    # op per event (pair_weights: per configuration-changing event), with
    # the op counts the per-event timers recorded.
    ops = {name: phase["ops"] for name, phase in telemetry["phases"].items()}
    assert ops == {"sampling": 15_000, "transition": 15_000, "pair_weights": 13_610}
    assert ops["sampling"] == ops["transition"] == applied
    changing = []
    counter = CallbackHook(
        on_batch_event=lambda sim, a, b, new_a, new_b: changing.append(
            Counter((a, b)) != Counter((new_a, new_b))
        )
    )
    hooked = simulate(
        entry.build(64, {}), 64, seed=2, backend="batch", max_interactions=15_000,
        hooks=[counter],
    )
    hooked_phases = hooked.extra["telemetry"]["phases"]
    assert {name: phase["ops"] for name, phase in hooked_phases.items()} == ops
    assert len(changing) == applied and sum(changing) == ops["pair_weights"]


# --------------------------------------------------------------------------
# Coin tapes on toy protocols
# --------------------------------------------------------------------------


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def key(self):
        return self.value


class _NestedCoins(Protocol):
    """Dense-regime toy whose transition draws a coin, a second coin only
    when the first came up 1, then three bits — a coin tree of depth 2-3.

    ``evaluations`` counts ``delta_key`` calls per (keys, coin path).
    """

    name = "nested-coins"
    pure_key_transitions = True

    def __init__(self):
        self.evaluations = Counter()

    def initial_state(self, agent_id):
        return _Cell(agent_id % 3)

    def transition(self, initiator, responder, rng):
        initiator.value, responder.value = self.delta_key(
            initiator.value, responder.value, rng
        )

    def output(self, state):
        return state.value

    def delta_key(self, key_a, key_b, rng):
        first = rng.getrandbits(1)
        second = rng.getrandbits(1) if first else None
        spread = rng.getrandbits(3)
        self.evaluations[(key_a, key_b, first, second, spread)] += 1
        if second:
            return key_b, key_a  # a swap: configuration-preserving
        return (key_a + spread) % 6, (key_b + first) % 6

    def output_key(self, key):
        return key


def test_nested_coin_tree_replays_the_plain_stream_and_evaluates_each_branch_once():
    memoised_protocol = _NestedCoins()
    memoised = _run(memoised_protocol, 24, 1, 6_000, pure=True)
    bypassed = _run(_NestedCoins(), 24, 1, 6_000, pure=False)
    assert _fingerprint(*memoised) == _fingerprint(*bypassed)
    evaluations = memoised_protocol.evaluations
    assert max(evaluations.values()) == 1
    memo = memoised[1].extra["telemetry"]["memo"]
    assert memo["misses"] == len(evaluations)
    assert memo["hits"] > memo["misses"]
    # A pair's tree: the first coin, the second coin under first = 1, and a
    # 3-bit node at the end of each of the three coin paths.
    assert memo["pairs"] < memo["coin_nodes"] <= 5 * memo["pairs"]
    assert len(evaluations) > 2 * memo["pairs"]


class _UsesRandom(_NestedCoins):
    name = "uses-random"

    def delta_key(self, key_a, key_b, rng):
        if rng.random() < 0.5:
            return key_b, key_a
        return key_a, key_b


def test_a_pure_declaration_that_uses_other_rng_methods_is_named():
    with pytest.raises(SimulationError, match="'uses-random'.*rng.random"):
        simulate(_UsesRandom(), 12, seed=0, backend="batch", max_interactions=100)
    # Without the declaration the same protocol runs (no memo).
    protocol = _UsesRandom()
    protocol.pure_key_transitions = False
    result = simulate(protocol, 12, seed=0, backend="batch", max_interactions=100)
    assert result.interactions == 100


class _DrawsUnevenly(_NestedCoins):
    """Declares purity but draws one or two bits on alternate calls."""

    name = "draws-unevenly"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def delta_key(self, key_a, key_b, rng):
        self.calls += 1
        rng.getrandbits(1 + self.calls % 2)
        return (key_a + 1) % 6, key_b


def test_a_coin_path_that_changes_between_evaluations_is_rejected():
    with pytest.raises(SimulationError, match="'draws-unevenly'.*coin bits"):
        simulate(_DrawsUnevenly(), 8, seed=3, backend="batch", max_interactions=10_000)
