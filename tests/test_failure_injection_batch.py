"""Batch-mode failure injection and sampling-regime detection (PR 2 satellites)."""

import random
from collections import Counter

import pytest

from repro.engine import (
    ConfigurationError,
    FailureInjectionHook,
    Simulator,
    all_outputs_equal,
    simulate,
)
from repro.engine.protocol import Protocol
from repro.engine.rng import make_rng
from repro.primitives.epidemic import OneWayEpidemic


def test_batch_sampling_regimes_are_detected():
    # Epidemic overrides can_interaction_change -> pruning; a protocol with
    # the conservative default -> dense.
    pruning = Simulator(OneWayEpidemic(), 16, backend="batch").backend
    assert pruning._prunes
    dense = Simulator(_MaxConsensus(), 16, backend="batch").backend
    assert not dense._prunes


class _MaxState:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def key(self):
        return self.value


class _MaxConsensus(Protocol):
    """Dense-regime fixture: epidemic dynamics *without* a can_change override."""

    name = "max-consensus-dense"
    pure_key_transitions = True

    def initial_state(self, agent_id):
        return _MaxState(agent_id % 4)

    def transition(self, initiator, responder, rng):
        if responder.value > initiator.value:
            initiator.value = responder.value

    def output(self, state):
        return state.value

    def copy_state(self, state):
        return _MaxState(state.value)

    def delta_key(self, key_a, key_b, rng):
        return max(key_a, key_b), key_b

    def output_key(self, key):
        return key

    def initial_key_counts(self, n):
        counts = Counter()
        for agent_id in range(n):
            counts[agent_id % 4] += 1
        return counts


def test_dense_regime_detects_deterministic_fixed_point():
    # Once every agent holds the maximum the single remaining key is a
    # provable no-op under a deterministic delta, despite the conservative
    # can_interaction_change.
    result = simulate(_MaxConsensus(), 32, seed=3, backend="batch", max_interactions=100_000)
    assert result.stopped_reason == "terminal"
    assert result.output_counts == Counter({3: 32})
    assert result.interactions < 100_000


def test_dense_regime_matches_agent_reachable_keys():
    agent_keys = set()
    batch_keys = set()
    for seed in range(5):
        simulator = Simulator(_MaxConsensus(), 24, seed=seed, backend="agent")
        simulator.run(max_interactions=2_000)
        agent_keys.update(simulator.state_space._seen)
        simulator = Simulator(_MaxConsensus(), 24, seed=seed, backend="batch")
        simulator.run(max_interactions=2_000)
        batch_keys.update(simulator.state_space._seen)
    assert agent_keys == batch_keys


# ------------------------------------------------------- failure injection
def test_hook_requires_some_corruption_mode():
    with pytest.raises(ConfigurationError):
        FailureInjectionHook(10)
    with pytest.raises(ConfigurationError):
        FailureInjectionHook(10, corrupt=lambda simulator: None, victims=0)


def test_agent_only_hook_still_rejected_by_batch():
    hook = FailureInjectionHook(10, corrupt=lambda simulator: None)
    assert hook.requires_agent_backend
    with pytest.raises(ConfigurationError):
        Simulator(OneWayEpidemic(), 8, hooks=[hook], backend="batch")
    assert Simulator(OneWayEpidemic(), 8, hooks=[hook], backend="auto").backend_name == "agent"


def test_key_only_hook_rejected_by_agent_backend_at_start():
    hook = FailureInjectionHook(10, corrupt_key=lambda key, rng: 0)
    simulator = Simulator(OneWayEpidemic(), 8, hooks=[hook], backend="agent")
    with pytest.raises(ConfigurationError):
        simulator.run(max_interactions=100)


def test_corrupt_histogram_conserves_population_and_rebuilds_weights():
    # The pair kernel's post-corruption invariant (its own differential
    # test is in tests/test_vectorized.py): its implied pair weights equal
    # a from-scratch recount over the corrupted histogram.
    protocol = OneWayEpidemic(source_count=4)
    simulator = Simulator(protocol, 32, seed=1, backend="batch")
    simulator.run(max_interactions=64)
    backend = simulator.backend
    changed = backend.corrupt_histogram(6, lambda key, rng: 0, make_rng(5))
    counts = backend.state_key_counts()
    assert sum(counts.values()) == 32
    assert 0 <= changed <= 6
    expected = {}
    for key_a, count_a in counts.items():
        for key_b, count_b in counts.items():
            weight = count_a * (count_a - 1) if key_a == key_b else count_a * count_b
            if weight > 0 and protocol.can_interaction_change(key_a, key_b):
                expected[(key_a, key_b)] = weight
    keys = backend._keys
    kernel = backend._pair_kernel
    assert {
        (keys[ident_a], keys[ident_b]): weight
        for (ident_a, ident_b), weight in kernel.pair_weights().items()
    } == expected
    assert kernel.active_weight() == sum(expected.values())


def test_dense_corruption_onto_a_single_no_op_key_is_terminal():
    # Every victim rewritten to the maximum: one key left, whose
    # self-interaction is a no-op, so the dense regime must report the
    # fixed point instead of spinning on no-op events until the budget.
    simulator = Simulator(_MaxConsensus(), 16, seed=2, backend="batch")
    backend = simulator.backend
    assert backend.corrupt_histogram(16, lambda key, rng: 3, make_rng(4)) > 0
    assert backend.state_key_counts() == Counter({3: 16})
    assert backend.terminal
    backend.advance_to(1_000_000)
    assert backend.applied_events == 0


def test_batch_failure_injection_fires_and_epidemic_recovers():
    hook = FailureInjectionHook(
        200, corrupt_key=lambda key, rng: 0, victims=4, seed=9
    )
    result = simulate(
        OneWayEpidemic(source_count=8),
        64,
        seed=3,
        backend="batch",
        hooks=[hook],
        convergence=all_outputs_equal(1),
        check_interval=64,
    )
    assert hook.fired
    assert result.converged
    assert result.consensus_output == 1


def test_before_checkpoint_precedes_predicate_evaluation():
    # Checkpoint-triggered interventions must be visible to the predicate
    # evaluated at the same checkpoint (the batch injection relies on this).
    from repro.engine import CallbackHook

    order = []
    hook = CallbackHook(
        before_checkpoint=lambda simulator: order.append("before"),
        on_checkpoint=lambda simulator, satisfied: order.append("after"),
    )
    predicate_calls = []

    def predicate(outputs):
        predicate_calls.append(len(order))
        return False

    simulate(
        OneWayEpidemic(), 8, seed=1, backend="batch", hooks=[hook],
        convergence=predicate, max_interactions=32, check_interval=8,
    )
    assert order[:2] == ["before", "after"]
    # At the first checkpoint the predicate ran after before_checkpoint (one
    # entry in `order`) and before on_checkpoint.
    assert predicate_calls[0] == 1


def test_corrupt_histogram_victims_are_distinct_agents():
    simulator = Simulator(OneWayEpidemic(source_count=4), 12, seed=1, backend="batch")
    backend = simulator.backend
    # Corrupting every agent to key 0 must hit all 12 distinct agents.
    changed = backend.corrupt_histogram(12, lambda key, rng: 0, make_rng(3))
    assert backend.state_key_counts() == Counter({0: 12})
    assert changed == 4  # only the 4 informed agents actually changed key
    with pytest.raises(ConfigurationError):
        backend.corrupt_histogram(13, lambda key, rng: 0, make_rng(3))


def test_corrupt_histogram_rejects_unseen_keys_under_lifted_adapter():
    from repro.engine import SimulationError
    from repro.primitives.phase_clock import JuntaPhaseClockProtocol

    protocol = JuntaPhaseClockProtocol()
    assert not protocol.supports_key_transitions()
    simulator = Simulator(protocol, 16, seed=1, backend="batch")
    simulator.run(max_interactions=200)
    with pytest.raises(SimulationError):
        simulator.backend.corrupt_histogram(
            1, lambda key, rng: ("bogus", "key"), make_rng(0)
        )


def test_injection_after_run_end_reports_unfired():
    # A run that converges/terminates before at_interaction finishes without
    # firing — under either backend; callers must assert hook.fired.
    for backend in ("agent", "batch"):
        hook = FailureInjectionHook(
            10**9, corrupt=lambda simulator: None, corrupt_key=lambda key, rng: 0
        )
        result = simulate(
            OneWayEpidemic(), 32, seed=2, backend=backend, hooks=[hook],
            convergence=all_outputs_equal(1),
        )
        assert result.converged
        assert not hook.fired


from repro.engine.stats import ks_statistic as _ks_statistic  # noqa: E402  (shared statistical harness)


@pytest.mark.stats
def test_agent_batch_injection_equivalence():
    # The same fault model — 4 uniformly chosen victims reset to state 0 at
    # interaction 100 — expressed per agent (agent backend) and per key
    # histogram (batch backend) must leave the convergence-time distribution
    # statistically unchanged between backends (KS, alpha=0.01, 25-vs-25
    # critical value ~0.45).
    n = 48
    samples = 25
    agent_times = []
    batch_times = []
    for seed in range(samples):
        def corrupt(simulator, _seed=seed):
            rng = make_rng(_seed, "victims")
            for index in rng.sample(range(n), 4):
                simulator.states[index].value = 0

        agent_hook = FailureInjectionHook(100, corrupt=corrupt)
        agent = simulate(
            OneWayEpidemic(source_count=8), n, seed=seed, backend="agent",
            hooks=[agent_hook], convergence=all_outputs_equal(1),
            check_interval=1, confirm_checks=1,
        )
        batch_hook = FailureInjectionHook(
            100, corrupt_key=lambda key, rng: 0, victims=4, seed=seed
        )
        batch = simulate(
            OneWayEpidemic(source_count=8), n, seed=1_000 + seed, backend="batch",
            hooks=[batch_hook], convergence=all_outputs_equal(1),
            check_interval=1, confirm_checks=1,
        )
        assert agent_hook.fired and batch_hook.fired
        assert agent.converged and batch.converged
        agent_times.append(agent.convergence_interaction)
        batch_times.append(batch.convergence_interaction)
    statistic = _ks_statistic(agent_times, batch_times)
    assert statistic < 0.45, (statistic, agent_times, batch_times)
