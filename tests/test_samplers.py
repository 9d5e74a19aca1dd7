"""The statistical test harness and the batch backend's dense sampler.

Correct weighted sampling dies silently — a broken sampler still converges
and its means look fine; only the distribution drifts.  The chi-square and
KS harness of :mod:`repro.engine.stats` is checked here, on the
linear-scan oracle in ``tests/scan_sampler.py``, and the dense regime's
:class:`~repro.engine.samplers.AgentPairSampler` is checked against that
oracle exactly: both evaluate the same inverse CDF, so their draw
sequences must be *identical*, not merely equidistributed.  The pruning
regime's kernel has its own tests in ``tests/test_vectorized.py`` and
``tests/test_exact_laws.py``.
"""

import random
from collections import Counter

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import ConfigurationError, Simulator, simulate
from repro.engine.samplers import AgentPairSampler
from repro.engine.stats import chi_square_gof, ks_statistic
from repro.experiments.registry import resolve_protocol
from scan_sampler import ScanSampler

STRATEGIES = {"scan": ScanSampler}

#: Generous significance threshold: a correct sampler fails a fixed-seed run
#: with probability 10^-3; a broken one fails with p-values ~ 10^-30.
ALPHA = 1e-3


def _wide_weights(size, salt=0):
    return {f"k{index}": (index * 37 + salt) % 11 + 1 for index in range(size)}


# --------------------------------------------------------------------------
# Chi-square goodness of fit (the oracle, both table sizes)
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
    assert "accel" not in result.extra["telemetry"]


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


def test_sweep_payload_threads_the_sampler_to_workers():
    # Cell payloads carry no sampling knob (they address the result
    # cache); the worker's run reports the draw path of its regime, the
    # factorised kernel for the pruning backup-exact.
    from repro.experiments.runner import cell_payload, execute_cell
    from repro.experiments.spec import SweepSpec

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
    assert sampler["strategy"] == "factorised"
    assert sampler["draws"] > 0
