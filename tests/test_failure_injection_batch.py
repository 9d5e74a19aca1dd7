"""Failure injection through timeline events, and sampling-regime detection.

A fault is a :class:`~repro.engine.hooks.TimelineEvent` whose ``apply``
corrupts victims with :meth:`~repro.engine.backends.BatchBackend.corrupt_histogram`
or :meth:`~repro.engine.backends.AgentBackend.corrupt_agents`: the run stops
at exactly ``at`` and the rewrite applies there.
"""

import random
from collections import Counter

import pytest

from repro.engine import (
    ConfigurationError,
    Simulator,
    TimelineEvent,
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


def test_dense_regime_matches_agent_reachable_keys(visited_keys):
    agent_keys = set()
    batch_keys = set()
    for seed in range(5):
        for backend, keys in (("agent", agent_keys), ("batch", batch_keys)):
            simulator = Simulator(_MaxConsensus(), 24, seed=seed, backend=backend)
            visited_keys(simulator, keys)
            simulator.run(max_interactions=2_000)
    assert agent_keys == batch_keys


# ------------------------------------------------------- failure injection
def _key_corruption(at, victims, rewrite, seed):
    """An event rewriting ``victims`` uniform agents' keys at interaction ``at``."""

    def apply(simulator):
        rng = make_rng(seed, "failure-injection")
        return {"changed": simulator.backend.corrupt_histogram(victims, rewrite, rng)}

    return TimelineEvent(at=at, kind="corrupt", apply=apply)


def _reset_to_zero(state, rng):
    state.value = 0


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
    result = simulate(
        OneWayEpidemic(source_count=8),
        64,
        seed=3,
        backend="batch",
        timeline=[_key_corruption(200, 4, lambda key, rng: 0, seed=9)],
        convergence=all_outputs_equal(1),
        check_interval=64,
    )
    assert result.extra["timeline"][0]["fired"]
    assert result.converged
    assert result.consensus_output == 1


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
    # On the agent loop and on both batch regimes a corruption applies with
    # the counter at exactly its interaction.  Events at or past the budget
    # never fire, here in runs that also stop early (converged): each is
    # recorded as unfired, and callers must read "fired" before counting a
    # recovery.
    budget = 5_000
    for protocol, backend_name, regime, final in (
        (OneWayEpidemic(), "agent", None, 1),
        (_MaxConsensus(), "batch", "dense", 3),
        (OneWayEpidemic(), "batch", "pruning", 1),
    ):
        applied_at = []

        def corrupt(simulator):
            applied_at.append(simulator.backend.interactions)
            rng = make_rng(2, "failure-injection")
            backend = simulator.backend
            if simulator.backend_name == "agent":
                return {"changed": backend.corrupt_agents(3, _reset_to_zero, rng)}
            return {"changed": backend.corrupt_histogram(3, lambda key, rng: 0, rng)}

        timeline = [
            TimelineEvent(at=at, kind="corrupt", apply=corrupt)
            for at in (37, budget, 10**9)
        ]
        simulator = Simulator(protocol, 32, seed=2, backend=backend_name)
        if regime is not None:
            assert simulator.backend.sampler_stats()["regime"] == regime
        result = simulator.run(
            max_interactions=budget, timeline=timeline, convergence=all_outputs_equal(final)
        )
        assert result.converged
        assert applied_at == [37]
        assert [(record["at"], record["fired"]) for record in result.extra["timeline"]] == [
            (37, True), (budget, False), (10**9, False),
        ]


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
            return {"changed": simulator.backend.corrupt_agents(4, _reset_to_zero, rng)}

        agent = simulate(
            OneWayEpidemic(source_count=8), n, seed=seed, backend="agent",
            timeline=[TimelineEvent(at=100, kind="corrupt", apply=corrupt)],
            convergence=all_outputs_equal(1), check_interval=1, confirm_checks=1,
        )
        batch = simulate(
            OneWayEpidemic(source_count=8), n, seed=1_000 + seed, backend="batch",
            timeline=[_key_corruption(100, 4, lambda key, rng: 0, seed=seed)],
            convergence=all_outputs_equal(1), check_interval=1, confirm_checks=1,
        )
        assert agent.extra["timeline"][0]["fired"] and batch.extra["timeline"][0]["fired"]
        assert agent.converged and batch.converged
        agent_times.append(agent.convergence_interaction)
        batch_times.append(batch.convergence_interaction)
    statistic = _ks_statistic(agent_times, batch_times)
    assert statistic < 0.45, (statistic, agent_times, batch_times)
