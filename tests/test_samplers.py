"""The statistical test harness of the batch backend's weighted sampler.

Correct weighted sampling dies silently — a broken sampler still converges
and its means look fine; only the distribution drifts.  So the Fenwick
sampler is checked at the *distribution* level (chi-square goodness of fit
against the exact target weights, KS compatibility of end-to-end
convergence-time laws) on top of exact differential tests against the
linear-scan oracle in ``tests/scan_sampler.py``: both evaluate the same
inverse CDF, so static-weight draw sequences must be *identical*, not
merely equidistributed.
"""

import random
from collections import Counter
from typing import Hashable, Tuple

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import (
    CallbackHook,
    ConfigurationError,
    Simulator,
    all_outputs_equal,
    simulate,
)
from repro.engine import backends
from repro.engine.protocol import Protocol
from repro.engine.samplers import AgentPairSampler, FenwickSampler
from repro.engine.stats import (
    chi_square_gof,
    ks_pvalue,
    ks_statistic,
)
from repro.experiments.registry import resolve_protocol
from scan_sampler import ScanSampler

STRATEGIES = {"scan": ScanSampler, "fenwick": FenwickSampler}

#: Generous significance threshold: a correct sampler fails a fixed-seed run
#: with probability 10^-3; a broken one fails with p-values ~ 10^-30.
ALPHA = 1e-3

#: A pair-table width the factorised kernel never reaches: pins the batch
#: backend's pruning regime to its Python sampler.
NEVER = 10**9


def _wide_weights(size, salt=0):
    return {f"k{index}": (index * 37 + salt) % 11 + 1 for index in range(size)}


class StaticTableProtocol(Protocol):
    """Pruning-regime protocol whose ``keys^2``-entry pair table never changes.

    Every ordered pair is declared active and every transition swaps the two
    keys, so the configuration never changes: each interaction is one
    sampler draw over a static table and nothing else.
    """

    name = "static-table"
    pure_key_transitions = True

    def __init__(self, keys: int) -> None:
        self.keys = keys

    def initial_state(self, agent_id: int) -> int:
        return agent_id % self.keys

    def transition(self, initiator: int, responder: int, rng: random.Random) -> None:
        raise NotImplementedError("static-table runs on the batch backend only")

    def output(self, state: int) -> int:
        return 0

    def state_key(self, state: int) -> Hashable:
        return state

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        return True

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return key_b, key_a

    def output_key(self, key: Hashable) -> int:
        return 0

    def initial_key_counts(self, n: int) -> Counter:
        return Counter(agent_id % self.keys for agent_id in range(n))


# --------------------------------------------------------------------------
# Chi-square goodness of fit (Fenwick and the oracle, both table sizes)
# --------------------------------------------------------------------------


@pytest.mark.stats
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("size", [12, 80])
def test_sampler_draws_from_exact_target_distribution(strategy, size):
    weights = _wide_weights(size)
    sampler = STRATEGIES[strategy](weights)
    rng = random.Random(1234 + size)
    observed = Counter(sampler.sample(rng) for _ in range(20_000))
    p_value = chi_square_gof(observed, weights)
    assert p_value > ALPHA, (strategy, size, p_value)


@pytest.mark.stats
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_sampler_distribution_survives_randomized_mutations(strategy):
    # A scripted storm of updates (including zeroing and resurrecting keys)
    # and wholesale rebuilds, then a goodness-of-fit check against the final
    # weights: stale internal state would shift the distribution.
    rng = random.Random(4242)
    sampler = STRATEGIES[strategy]({f"s{index}": 1 for index in range(50)})
    shadow = {f"s{index}": 1 for index in range(50)}
    for step in range(600):
        if step % 151 == 150:
            shadow = {
                f"r{step}-{index}": rng.randrange(1, 8)
                for index in range(rng.randrange(40, 70))
            }
            sampler.rebuild(shadow)
            continue
        key = f"s{rng.randrange(70)}" if step < 151 else rng.choice(list(shadow))
        weight = rng.randrange(0, 9)
        sampler.update(key, weight)
        if weight:
            shadow[key] = weight
        else:
            shadow.pop(key, None)
    if not shadow:  # pragma: no cover - the script above keeps keys alive
        shadow = {"fallback": 1}
        sampler.rebuild(shadow)
    assert sampler.total == sum(shadow.values())
    assert sampler.weights() == shadow
    draw_rng = random.Random(97)
    observed = Counter(sampler.sample(draw_rng) for _ in range(20_000))
    p_value = chi_square_gof(observed, shadow)
    assert p_value > ALPHA, (strategy, p_value)


def test_ks_statistic_measures_between_distinct_values_only():
    # Interaction counts tie often at small n; the gap must be measured
    # after both CDFs step past a shared value, never mid-tie.
    assert ks_statistic([1], [1]) == 0.0
    assert ks_statistic([5, 5, 5], [5, 5, 5]) == 0.0
    assert ks_statistic([1, 2], [1, 2]) == 0.0
    assert ks_statistic([1], [2]) == 1.0
    assert ks_statistic([1, 1, 2], [1, 2, 2]) == pytest.approx(1 / 3)


def test_chi_square_harness_rejects_a_broken_distribution():
    # The harness itself must have power: draws from visibly wrong weights
    # (uniform instead of linear) must be rejected decisively.
    weights = {index: index + 1 for index in range(20)}
    rng = random.Random(5)
    observed = Counter(rng.randrange(20) for _ in range(20_000))
    assert chi_square_gof(observed, weights) < 1e-12


# --------------------------------------------------------------------------
# Fenwick differential: prefix sums vs a naive list under random mutations
# --------------------------------------------------------------------------


def test_fenwick_prefix_sums_match_naive_list_under_mutations():
    rng = random.Random(31337)
    fenwick = FenwickSampler()
    naive = {}
    keys = [f"m{index}" for index in range(90)]
    for step in range(1_000):
        if step % 211 == 210:
            naive = {key: rng.randrange(1, 12) for key in rng.sample(keys, 25)}
            fenwick.rebuild(naive)
        else:
            key = rng.choice(keys)
            weight = rng.randrange(0, 10)
            fenwick.update(key, weight)
            if weight:
                naive[key] = weight
            else:
                naive.pop(key, None)
        assert fenwick.total == sum(naive.values()), step
        assert fenwick.weights() == naive, step
        # Every prefix sum must match a brute-force accumulation over the
        # tree's own slot order (dead slots included — they contribute 0).
        accumulated = 0
        for slot in range(len(fenwick._keys)):
            accumulated += fenwick._leaf[slot]
            assert fenwick._prefix(slot + 1) == accumulated, (step, slot)


def test_fenwick_compacts_dead_slots():
    fenwick = FenwickSampler({index: 1 for index in range(100)})
    for index in range(70):
        fenwick.update(index, 0)
    # Once more than half the slots died the structure compacted (dead keys
    # zeroed afterwards stay as dead slots until the next threshold).
    assert len(fenwick._keys) < 100
    assert fenwick.total == 30
    assert fenwick.weights() == {index: 1 for index in range(70, 100)}


# --------------------------------------------------------------------------
# Fenwick vs the scan oracle: identical sequences when static, KS when not
# --------------------------------------------------------------------------


def test_static_weight_draw_sequences_are_identical_across_strategies():
    # The canonical draw contract: same weights + same stream => the same
    # key sequence from the tree and the scan, bit for bit.
    weights = _wide_weights(80)
    sequences = []
    for strategy in sorted(STRATEGIES):
        sampler = STRATEGIES[strategy](dict(weights))
        rng = random.Random(7)
        sequences.append([sampler.sample(rng) for _ in range(4_000)])
    assert sequences[0] == sequences[1]


def test_static_protocol_interaction_sequences_identical_across_strategies(monkeypatch):
    # End to end: the static protocol's pair table never changes, so the
    # batch backend's applied-event sequence must be the same for one seed
    # whether it draws from the Fenwick tree or from the scan oracle
    # (12 keys -> 144 pair types; the kernel is held off to keep the
    # Python sampler in charge).
    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", NEVER)
    sequences = {}
    for strategy in sorted(STRATEGIES):
        monkeypatch.setattr(backends, "FenwickSampler", STRATEGIES[strategy])
        events = []
        hook = CallbackHook(
            on_batch_event=lambda sim, a, b, na, nb: events.append((a, b))
        )
        result = simulate(
            StaticTableProtocol(keys=12),
            128,
            seed=5,
            backend="batch",
            max_interactions=3_000,
            hooks=[hook],
        )
        assert result.interactions == 3_000
        assert result.extra["telemetry"]["sampler"]["strategy"] == strategy
        sequences[strategy] = events
    assert sequences["scan"] == sequences["fenwick"]
    assert len(sequences["scan"]) == 3_000


def _convergence_times(monkeypatch, make_protocol, n, strategy, offset, samples=30):
    """Convergence interactions of ``samples`` seeded batch runs.

    ``strategy`` is ``"scan"`` (the oracle in place of the Fenwick tree,
    kernel held off), ``"fenwick"`` (kernel held off) or ``"default"``
    (the backend's own choice, the factorised kernel when NumPy is present).
    """
    times = []
    with monkeypatch.context() as patch:
        if strategy != "default":
            patch.setattr(backends, "KERNEL_MIN_PAIRS", NEVER)
            patch.setattr(backends, "FenwickSampler", STRATEGIES[strategy])
        for seed in range(samples):
            protocol, predicate = make_protocol()
            result = simulate(
                protocol,
                n,
                seed=offset + seed,
                backend="batch",
                convergence=predicate,
                check_interval=n,
                confirm_checks=1,
                max_interactions=3_000_000,
            )
            assert result.converged, (strategy, seed)
            times.append(result.convergence_interaction)
    return times


def _assert_laws_match(by_strategy, samples=30):
    names = sorted(by_strategy)
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            statistic = ks_statistic(by_strategy[first], by_strategy[second])
            p_value = ks_pvalue(statistic, samples, samples)
            assert p_value > ALPHA, (first, second, statistic, p_value)


def test_agent_pair_sampler_is_the_canonical_scan_over_ordered_agent_pairs():
    # The dense regime's draw is the canonical inverse CDF over the explicit
    # unit-weight table of ordered pairs of distinct agents: the scan over
    # that table maps a stream to the identical pair sequence, also after a
    # resize, and every pair is reachable.
    for n in (2, 3, 7, 20):
        sampler = AgentPairSampler(n + 5)
        sampler.resize(n)
        oracle = ScanSampler(sampler.weights())
        assert sampler.total == oracle.total == len(sampler) == n * (n - 1)
        fast, slow = random.Random(n), random.Random(n)
        drawn = [sampler.sample(fast) for _ in range(4_000)]
        assert drawn == [oracle.sample(slow) for _ in range(4_000)]
        if n <= 7:
            assert set(drawn) == set(oracle.weights())
        assert sampler.stats() == {"strategy": "agent-array", "draws": 4_000}
    with pytest.raises(ConfigurationError):
        AgentPairSampler(1)
    with pytest.raises(ConfigurationError):
        sampler.update((0, 1), 2)
    with pytest.raises(ConfigurationError):
        sampler.rebuild({(0, 1): 1})


@pytest.mark.stats
def test_backup_exact_convergence_distributions_match_across_strategies(monkeypatch):
    # Under churn the draw paths legitimately diverge (slot orders drift),
    # so the claim becomes statistical: the convergence-time laws must be
    # indistinguishable between the Fenwick tree, the scan oracle and the
    # backend's default path.  Only the pruning regime samples from a
    # weighted sampler; the dense regime is checked against the agent loop
    # in tests/test_batch_backend.py.
    n = 96

    def backup():
        return ExactBackupProtocol(), all_outputs_equal(n)

    _assert_laws_match({
        strategy: _convergence_times(monkeypatch, backup, n, strategy, 1_000 * index)
        for index, strategy in enumerate(("scan", "fenwick", "default"))
    })


# --------------------------------------------------------------------------
# Validation and reporting
# --------------------------------------------------------------------------


def test_unknown_sampler_names_are_rejected_everywhere():
    # The sampler knob is gone: the engine no longer accepts it at all, and
    # a spec may only carry it with the old default value.
    from repro.experiments.spec import SweepSpec
    from repro.scenarios.spec import ScenarioSpec

    with pytest.raises(TypeError):
        Simulator(ExactBackupProtocol(), 8, backend="batch", sampler="alias")
    with pytest.raises(TypeError):
        simulate(ExactBackupProtocol(), 8, backend="batch", sampler="fenwick")
    sweep = {"name": "s", "protocol": "backup-exact", "ns": [16], "sampler": "alias"}
    with pytest.raises(ConfigurationError, match="removed"):
        SweepSpec.from_dict(sweep)
    scenario = {
        "name": "c",
        "protocol": "backup-exact",
        "ns": [16],
        "events": [{"kind": "restart", "at_interactions": 10}],
        "sampler": "alias",
    }
    with pytest.raises(ConfigurationError, match="removed"):
        ScenarioSpec.from_dict(scenario)


def test_sampler_rejects_negative_weights_and_empty_draws():
    for strategy in sorted(STRATEGIES):
        sampler = STRATEGIES[strategy]({"a": 1})
        with pytest.raises(ConfigurationError):
            sampler.update("a", -1)
        sampler.update("a", 0)
        with pytest.raises(ConfigurationError):
            sampler.sample(random.Random(0))
        with pytest.raises(ConfigurationError):
            STRATEGIES[strategy]({"a": -2})
        assert STRATEGIES[strategy]({"a": 0, "b": 2}).weights() == {"b": 2}


def test_dense_regime_reports_sampler_stats():
    # A protocol with the conservative can_interaction_change runs the dense
    # regime on the agent array, one index pair per interaction; the sampler
    # record must say so.
    entry = resolve_protocol("approximate")
    result = simulate(
        entry.build(64, {}), 64, seed=1, backend="batch", max_interactions=2_000,
    )
    stats = result.extra["telemetry"]["sampler"]
    assert stats == {"regime": "dense", "strategy": "agent-array", "draws": 2_000}
    assert result.extra["telemetry"]["accel"]["engaged"] is False


def test_spec_layers_carry_the_sampler_knob():
    # Specs of earlier releases record sampler="auto"; both spec layers
    # still load them, drop the knob on the round trip, and refuse any
    # other value instead of silently ignoring it.
    from repro.experiments.spec import SweepSpec
    from repro.scenarios.spec import ScenarioSpec

    sweep = {"name": "s", "protocol": "backup-exact", "ns": [16], "sampler": "auto"}
    loaded = SweepSpec.from_dict(sweep)
    assert "sampler" not in loaded.to_dict()
    assert SweepSpec.from_json(loaded.to_json()) == loaded
    with pytest.raises(ConfigurationError, match="removed"):
        SweepSpec.from_dict(dict(sweep, sampler="fenwick"))
    with pytest.raises(TypeError):
        SweepSpec(name="s", protocol="backup-exact", ns=[16], sampler="auto")

    scenario = {
        "name": "c",
        "protocol": "backup-exact",
        "ns": [16],
        "sampler": "auto",
        "events": [{"kind": "restart", "at_interactions": 10}],
    }
    loaded = ScenarioSpec.from_dict(scenario)
    assert "sampler" not in loaded.to_dict()
    assert ScenarioSpec.from_json(loaded.to_json()) == loaded
    with pytest.raises(ConfigurationError, match="removed"):
        ScenarioSpec.from_dict(dict(scenario, sampler="nope"))


def test_sweep_payload_threads_the_sampler_to_workers(monkeypatch):
    # Cell payloads carry no sampling knob (they address the result
    # cache); the worker's run reports the sampler the backend chose.  An
    # unreachable kernel width keeps the run on the Fenwick sampler.
    from repro.experiments.runner import cell_payload, execute_cell
    from repro.experiments.spec import SweepSpec

    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", 10**9)
    spec = SweepSpec(
        name="s",
        protocol="backup-exact",
        ns=[16],
        seeds_per_cell=1,
        backend="batch",
        max_checks=10,
    )
    payload = cell_payload(spec, spec.cells()[0])
    assert "sampler" not in payload
    record = execute_cell(payload)
    assert record["error"] is None
    sampler = record["runs"][0]["extra"]["telemetry"]["sampler"]
    assert sampler["strategy"] == "fenwick"
    assert sampler["draws"] > 0
