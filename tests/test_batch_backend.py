"""Batch-backend unit tests and agent/batch equivalence checks.

The batch backend simulates the same Markov chain as the agent backend,
marginalised over agent identities.  For small populations the two must
therefore agree exactly on reachable state-key sets and consensus outputs,
and statistically on convergence times.
"""

import math
import random
from collections import Counter

import pytest

from repro.engine import (
    ConfigurationError,
    SimulationError,
    Simulator,
    all_outputs_equal,
    outputs_in,
    simulate,
)
from repro.engine.backends import BatchBackend, LiftedKeyTransitions
from repro.engine.hooks import TimelineEvent
from repro.engine.rng import make_rng
from repro.engine.scheduler import SequenceScheduler
from repro.engine.stats import (
    chi_square_pvalue,
    chi_square_statistic,
    ks_pvalue,
    ks_statistic,
)
from repro.experiments.registry import resolve_protocol
from repro.primitives.epidemic import MaximumBroadcast, OneWayEpidemic
from repro.primitives.junta import JuntaProtocol
from repro.primitives.load_balancing import (
    EMPTY,
    ClassicalLoadBalancing,
    PowersOfTwoLoadBalancing,
)
from repro.primitives.phase_clock import JuntaPhaseClockProtocol
from repro.primitives.synthetic_coin import ParityCoinProtocol
from repro.scenarios import builtin_scenarios
from repro.scenarios.events import expand_events


def _protocol_grid(n):
    kappa = max(0, (3 * n // 4).bit_length() - 1)
    return [
        (OneWayEpidemic(), all_outputs_equal(1)),
        (JuntaProtocol(), None),
        (ClassicalLoadBalancing([n]), None),
        (PowersOfTwoLoadBalancing(kappa=kappa), outputs_in({EMPTY, 0})),
        (ParityCoinProtocol(), None),
    ]


@pytest.mark.parametrize("n", [8, 32, 64])
def test_backends_agree_on_consensus_outputs(n):
    protocol = OneWayEpidemic()
    agent = simulate(protocol, n, seed=101, convergence=all_outputs_equal(1), backend="agent")
    batch = simulate(protocol, n, seed=202, convergence=all_outputs_equal(1), backend="batch")
    assert agent.consensus_output == batch.consensus_output == 1
    assert agent.n == batch.n
    assert batch.extra["backend"] == "batch"
    assert batch.extra["transition_calls"] <= agent.extra["transition_calls"]


@pytest.mark.parametrize("n", [8, 32, 64])
def test_backends_reach_identical_state_key_sets(n, visited_keys):
    # Run each backend over several seeds and compare the union of observed
    # state keys; the chains explore the same reachable key space.
    for protocol_factory, budget in (
        (lambda: OneWayEpidemic(), 64 * n),
        (lambda: PowersOfTwoLoadBalancing(kappa=max(0, (3 * n // 4).bit_length() - 1)), 64 * n),
    ):
        agent_keys = set()
        batch_keys = set()
        for seed in range(5):
            for backend, keys in (("agent", agent_keys), ("batch", batch_keys)):
                simulator = Simulator(protocol_factory(), n, seed=seed, backend=backend)
                visited_keys(simulator, keys)
                simulator.run(max_interactions=budget)
        assert agent_keys == batch_keys


@pytest.mark.parametrize("n", [8, 32, 64])
def test_batch_conserves_population_and_tokens(n):
    protocol = ClassicalLoadBalancing([n])
    simulator = Simulator(protocol, n, seed=9, backend="batch")
    result = simulator.run(max_interactions=64 * n)
    counts = simulator.state_key_counts()
    assert sum(counts.values()) == n
    assert sum(load * count for load, count in counts.items()) == protocol.total_tokens
    assert result.interactions <= 64 * n


def test_degenerate_single_pair_type_is_exact():
    # n = 2 with loads {4, 0}: the only configuration-changing pair types are
    # (4, 0) and (0, 4), both mapping to {2, 2}, and every drawn pair is
    # active (p = 1).  Both backends must therefore resolve the first
    # interaction identically, for any seed.
    for seed in range(10):
        agent = Simulator(ClassicalLoadBalancing([4]), 2, seed=seed, backend="agent")
        agent.run(max_interactions=1)
        batch = Simulator(ClassicalLoadBalancing([4]), 2, seed=seed, backend="batch")
        batch.run(max_interactions=1)
        assert agent.state_key_counts() == batch.state_key_counts() == Counter({2: 2})
    # After that single interaction the configuration is a fixed point, which
    # the batch backend detects structurally.
    batch = Simulator(ClassicalLoadBalancing([4]), 2, seed=0, backend="batch")
    result = batch.run(max_interactions=100)
    assert result.stopped_reason == "terminal"
    assert result.interactions == 1


@pytest.mark.stats
def test_convergence_time_distributions_are_compatible():
    # KS-style tolerance check on epidemic convergence interactions at n = 32.
    n = 32
    samples = 40
    agent_times = []
    batch_times = []
    for seed in range(samples):
        agent = simulate(
            OneWayEpidemic(), n, seed=seed, backend="agent",
            convergence=all_outputs_equal(1), check_interval=1, confirm_checks=1,
        )
        batch = simulate(
            OneWayEpidemic(), n, seed=1000 + seed, backend="batch",
            convergence=all_outputs_equal(1), check_interval=1, confirm_checks=1,
        )
        assert agent.converged and batch.converged
        agent_times.append(agent.convergence_interaction)
        batch_times.append(batch.convergence_interaction)
    statistic = ks_statistic(agent_times, batch_times)
    # Critical value at alpha = 0.01 for 40-vs-40 samples is ~0.364.
    assert statistic < 0.364, (statistic, agent_times, batch_times)


def test_batch_terminal_detection_on_junta():
    # The junta process stabilises (everyone inactive on a common level); the
    # batch backend must detect the fixed point and stop early.
    result = simulate(JuntaProtocol(), 64, seed=4, backend="batch")
    assert result.stopped_reason == "terminal"
    assert all(not active for (_level, active, _junta) in result.output_counts)
    assert result.extra["transition_calls"] < result.interactions


def test_batch_transition_call_reduction_on_epidemic():
    n = 4096
    agent = simulate(OneWayEpidemic(), n, seed=5, convergence=all_outputs_equal(1), backend="agent")
    batch = simulate(OneWayEpidemic(), n, seed=5, convergence=all_outputs_equal(1), backend="batch")
    assert agent.extra["transition_calls"] == agent.interactions
    # The epidemic delta is deterministic, so the batch backend memoises the
    # single active pair type: one Python-level transition call in total.
    assert batch.extra["transition_calls"] == 1
    assert agent.extra["transition_calls"] / batch.extra["transition_calls"] >= 50


def test_lifted_adapter_runs_protocols_without_delta_key():
    protocol = JuntaPhaseClockProtocol()
    assert not protocol.supports_key_transitions()
    result = simulate(protocol, 16, seed=3, backend="batch", max_interactions=2000)
    assert result.interactions == 2000
    assert sum(result.output_counts.values()) == 16


def test_lifted_adapter_matches_direct_transitions():
    protocol = ParityCoinProtocol()
    lifted = LiftedKeyTransitions(protocol)
    state_a = protocol.initial_state(0)
    state_b = protocol.initial_state(1)
    key_a = lifted.register(state_a)
    key_b = lifted.register(state_b)
    rng = make_rng(0)
    lifted_keys = lifted.delta_key(key_a, key_b, rng)
    native_keys = protocol.delta_key(key_a, key_b, rng)
    protocol.transition(state_a, state_b, rng)
    direct_keys = (protocol.state_key(state_a), protocol.state_key(state_b))
    assert lifted_keys == native_keys == direct_keys
    assert lifted.output_key(lifted_keys[0]) == protocol.output_key(lifted_keys[0])


def test_batch_rejects_custom_schedulers_and_stepping():
    with pytest.raises(ConfigurationError):
        Simulator(
            OneWayEpidemic(), 8, scheduler=SequenceScheduler([(0, 1)]), backend="batch"
        )
    simulator = Simulator(OneWayEpidemic(), 8, backend="batch")
    with pytest.raises(SimulationError):
        simulator.step()
    with pytest.raises(SimulationError):
        simulator.states


def test_auto_backend_selection():
    assert Simulator(OneWayEpidemic(), 8, backend="auto").backend_name == "batch"
    # No native key-level API: auto falls back to the per-agent loop.
    assert Simulator(JuntaPhaseClockProtocol(), 8, backend="auto").backend_name == "agent"
    # Custom scheduler forces the per-agent loop.
    assert (
        Simulator(
            OneWayEpidemic(), 8, scheduler=SequenceScheduler([(0, 1)]), backend="auto"
        ).backend_name
        == "agent"
    )


def test_batch_initial_key_counts_match_per_agent_construction():
    n = 33
    for protocol in (
        OneWayEpidemic(source_count=3, source_value=9),
        MaximumBroadcast([7, 3, 3]),
        JuntaProtocol(),
        ClassicalLoadBalancing([5, 5]),
        PowersOfTwoLoadBalancing(kappa=4, loaded_agents=2),
        ParityCoinProtocol(),
    ):
        explicit = Counter(
            protocol.state_key(protocol.initial_state(i)) for i in range(n)
        )
        assert protocol.initial_key_counts(n) == explicit


def test_delta_key_matches_transition_on_random_pairs():
    # Drive an agent-backend simulation and check, at every step, that the
    # key-level transition agrees with the mutating one.
    for protocol in (
        OneWayEpidemic(),
        JuntaProtocol(),
        ClassicalLoadBalancing([16]),
        PowersOfTwoLoadBalancing(kappa=3),
        ParityCoinProtocol(),
    ):
        simulator = Simulator(protocol, 12, seed=8, backend="agent")
        rng = make_rng(99)
        for _ in range(300):
            initiator, responder = simulator.scheduler.next_pair(
                12, simulator._scheduler_rng, simulator.interactions
            )
            state_a = simulator.states[initiator]
            state_b = simulator.states[responder]
            keys_before = (protocol.state_key(state_a), protocol.state_key(state_b))
            expected = protocol.delta_key(*keys_before, rng)
            protocol.transition(state_a, state_b, rng)
            observed = (protocol.state_key(state_a), protocol.state_key(state_b))
            assert observed == expected, (protocol.name, keys_before)


def test_can_interaction_change_is_exact_for_key_protocols(visited_keys):
    # A False answer from can_interaction_change must guarantee that the
    # interaction preserves the configuration multiset; exhaustively check
    # all key pairs observed during a run.
    rng = make_rng(5)
    for protocol, n in (
        (OneWayEpidemic(), 16),
        (JuntaProtocol(), 16),
        (ClassicalLoadBalancing([16]), 16),
        (PowersOfTwoLoadBalancing(kappa=3), 16),
    ):
        keys = set()
        simulator = Simulator(protocol, n, seed=6, backend="agent")
        visited_keys(simulator, keys)
        simulator.run(max_interactions=32 * n)
        for key_a in keys:
            for key_b in keys:
                if not protocol.can_interaction_change(key_a, key_b):
                    new_a, new_b = protocol.delta_key(key_a, key_b, rng)
                    assert Counter([new_a, new_b]) == Counter([key_a, key_b]), (
                        protocol.name,
                        key_a,
                        key_b,
                    )


# --------------------------------------------------------------------------
# Dense regime: the agent array
# --------------------------------------------------------------------------

#: A correct dense regime fails a fixed-seed comparison with probability
#: ~10^-3 per test statistic.
ALPHA = 1e-3


def _registry_runs(name, n, backend, seeds, offset, budget):
    entry = resolve_protocol(name)
    return [
        simulate(
            entry.build(n, {}),
            n,
            seed=seed,
            backend=backend,
            convergence=entry.convergence(n, {}),
            check_interval=n,
            confirm_checks=1,
            max_interactions=budget,
        )
        for seed in range(offset, offset + seeds)
    ]


def _homogeneity_pvalue(first, second):
    """Chi-square test that two samples of categories share one law."""
    pooled = first + second
    statistic = (
        chi_square_statistic(first, pooled)[0] + chi_square_statistic(second, pooled)[0]
    )
    return chi_square_pvalue(statistic, max(1, len(pooled) - 1))


@pytest.mark.stats
def test_dense_regime_laws_match_the_agent_loop():
    # The dense regime draws its scheduler stream differently from the agent
    # loop, so exactness is a claim about laws: the convergence-interaction
    # laws of count-exact (n = 16) and approximate (n = 17), and the output
    # approximate settles on at n = 17, where floor(log2 n) = 4 and
    # ceil(log2 n) = 5 are both accepted and both common.  A few seeds
    # settle wrong or miss the budget on either backend (Theorems 1 and 2
    # hold w.h.p.).
    seeds = 40
    for name, n, budget in (("count-exact", 16, 100_000), ("approximate", 17, 60_000)):
        runs = {
            backend: _registry_runs(name, n, backend, seeds, offset, budget)
            for backend, offset in (("agent", 0), ("batch", 10_000))
        }
        times = {
            backend: [run.convergence_interaction for run in results if run.converged]
            for backend, results in runs.items()
        }
        for backend, converged in times.items():
            assert len(converged) >= seeds * 3 // 4, (name, backend, len(converged))
        statistic = ks_statistic(times["agent"], times["batch"])
        p_value = ks_pvalue(statistic, len(times["agent"]), len(times["batch"]))
        assert p_value > ALPHA, (name, statistic, p_value)
    outputs = {
        backend: Counter(
            tuple(sorted(run.output_counts)) for run in results if run.converged
        )
        for backend, results in runs.items()
    }
    p_value = _homogeneity_pvalue(outputs["agent"], outputs["batch"])
    assert p_value > ALPHA, (outputs, p_value)


def _assert_agent_array(backend):
    # Exact: ``Counter``'s ``==`` would ignore a stray zero entry.
    assert all(count > 0 for count in backend._counts.values())
    assert backend._counts == dict(Counter(backend._agents))
    assert len(backend._agents) == backend.n


class _RecordingRandom(random.Random):
    """A ``random.Random`` that keeps every ``sample`` it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.samples = []

    def sample(self, population, k, **kwargs):
        drawn = super().sample(population, k, **kwargs)
        self.samples.append(drawn)
        return drawn


def test_dense_agent_array_tracks_the_histogram_through_population_changes():
    # approximate-stable runs the dense regime; drive it through the
    # stable-detect timeline (join with restart, clock-phase corruption,
    # leave) at n = 32, then a direct leave, corruption and restart, and
    # check the agent array against the histogram after every event.
    n = 32
    spec = builtin_scenarios()["stable-detect"]
    simulator = Simulator(
        resolve_protocol(spec.protocol).build(n, {}), n, seed=5, backend="batch"
    )
    backend = simulator.backend
    assert not backend._prunes
    _assert_agent_array(backend)
    fired = []

    def checked(event):
        def apply(sim):
            details = event.apply(sim)
            _assert_agent_array(backend)
            fired.append(event.kind)
            return details

        return TimelineEvent(at=event.at, kind=event.kind, apply=apply, label=event.label)

    timeline = [checked(event) for event in expand_events(spec.events, n, {}, 5)]
    simulator.run(max_interactions=spec.budget.budget(n), timeline=timeline)
    assert fired == ["join", "corrupt", "leave"]
    _assert_agent_array(backend)

    before = Counter(backend._agents)
    rng = _RecordingRandom(1)
    backend.leave(10, rng)
    _assert_agent_array(backend)
    # Ten distinct agents left: no id lost more agents than it had.
    removed = before - Counter(backend._agents)
    assert sum(removed.values()) == 10
    assert Counter(backend._agents) + removed == before

    target = backend._keys[backend._agents[0]]
    assert backend.corrupt_histogram(12, lambda key, rng: target, rng) > 0
    _assert_agent_array(backend)
    # One draw of distinct agent indices per victim set.
    assert [len(set(indices)) for indices in rng.samples] == [10, 12]

    backend.restart_population()
    _assert_agent_array(backend)
    backend.advance_to(backend.interactions + 2_000)
    _assert_agent_array(backend)
