"""Tests for the NumPy acceleration of the pruning regime.

The layer must be *provably optional*: the CI matrix runs one leg with
NumPy and one without, and the guard test here pins the active path against
the leg's declared intent (``REPRO_EXPECT_ACCEL``) so the two legs can
never silently test the same code.  The batch backend engages the
factorised kernel by itself once the active pair table grows past
``KERNEL_MIN_PAIRS``; tests that need one path or the other move that
width.  Equivalence is checked at two levels: exact differential tests of
the factorised pair weights against a from-scratch recomputation, and
distribution-level chi-square / KS checks of draws and end-to-end
convergence-time laws.
"""

import os
import random
from collections import Counter

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import ConfigurationError, Simulator, all_outputs_equal, simulate
from repro.engine import backends
from repro.engine.stats import chi_square_gof, ks_pvalue, ks_statistic
from repro.engine import vectorized as vectorized_module
from repro.engine.vectorized import FactorisedPairKernel, numpy_available

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy unavailable (or vetoed by REPRO_NO_NUMPY)"
)

#: Generous significance threshold (see tests/test_samplers.py).
ALPHA = 1e-3

#: A pair-table width the kernel never reaches: pins the Python path.
NEVER = 10**9


def _telemetry(result):
    return result.extra["telemetry"]


# --------------------------------------------------------------------------
# CI guard: the intended accel path must actually be active
# --------------------------------------------------------------------------


def test_ci_guard_active_accel_path_matches_leg_intent():
    # On CI, REPRO_EXPECT_ACCEL declares the matrix leg's intent; locally
    # the expectation is simply consistency with NumPy availability.  The
    # assertion is made on a *real simulation's* report, not on
    # numpy_available() alone, so a wiring regression cannot slip through.
    expected = os.environ.get("REPRO_EXPECT_ACCEL")
    if expected is None:
        expected = "numpy" if numpy_available() else "python"
    assert expected in ("numpy", "python")
    if expected == "numpy":
        assert numpy_available(), "numpy leg without importable NumPy"
    else:
        assert not numpy_available(), (
            "pure-python leg with NumPy importable; set REPRO_NO_NUMPY=1"
        )
    result = simulate(
        ExactBackupProtocol(), 64, seed=0, backend="batch", max_interactions=2_000
    )
    accel = _telemetry(result)["accel"]
    assert accel["active"] == expected
    assert accel["numpy_available"] == (expected == "numpy")
    # Prove the leg exercises its own hot loop: a churning pruning workload
    # must *engage* the factorised kernel on the numpy leg and must not
    # (cannot) on the pure-python leg.
    churn = simulate(
        ExactBackupProtocol(),
        256,
        seed=11,
        backend="batch",
        max_interactions=150_000,
    )
    assert _telemetry(churn)["accel"]["engaged"] == (expected == "numpy")
    strategy = _telemetry(churn)["sampler"]["strategy"]
    assert strategy == ("factorised" if expected == "numpy" else "fenwick")


def test_guard_python_accel_is_always_available(monkeypatch):
    # With NumPy made undetectable the pruning regime runs the Python
    # sampler end to end and still reaches the exact count.
    monkeypatch.setattr(vectorized_module, "_np", None)
    assert not numpy_available()
    result = simulate(
        ExactBackupProtocol(),
        128,
        seed=0,
        backend="batch",
        convergence=all_outputs_equal(128),
        check_interval=128,
        max_interactions=1_000_000,
    )
    accel = _telemetry(result)["accel"]
    assert accel["active"] == "python"
    assert accel["engaged"] is False
    assert _telemetry(result)["sampler"]["strategy"] == "fenwick"
    assert result.output_counts == Counter({128: 128})


# --------------------------------------------------------------------------
# No knob: validation and stream identity of the Python path
# --------------------------------------------------------------------------


def test_unknown_accel_names_are_rejected_everywhere():
    # The accel knob is gone: the engine no longer accepts it at all, and
    # a spec may only carry it with the old default value.
    from repro.experiments.spec import SweepSpec

    with pytest.raises(TypeError):
        Simulator(ExactBackupProtocol(), 8, backend="batch", accel="numpy")
    with pytest.raises(TypeError):
        simulate(ExactBackupProtocol(), 8, backend="batch", accel="python")
    for value in ("numpy", "python", "cuda"):
        with pytest.raises(ConfigurationError, match="removed"):
            SweepSpec.from_dict(
                {"name": "s", "protocol": "backup-exact", "ns": [16], "accel": value}
            )


def test_spec_layers_carry_and_validate_the_accel_knob():
    # Specs of earlier releases record accel="auto"; both spec layers still
    # load them and drop the knob, and every other value is refused.
    from repro.experiments.spec import SweepSpec
    from repro.scenarios.spec import ScenarioSpec

    sweep = {"name": "s", "protocol": "backup-exact", "ns": [16], "accel": "auto"}
    loaded = SweepSpec.from_dict(sweep)
    assert "accel" not in loaded.to_dict()
    assert SweepSpec.from_json(loaded.to_json()) == loaded
    with pytest.raises(TypeError):
        SweepSpec(name="s", protocol="backup-exact", ns=[16], accel="auto")

    scenario = {
        "name": "c",
        "protocol": "backup-exact",
        "ns": [16],
        "accel": "auto",
        "events": [{"kind": "restart", "at_interactions": 10}],
    }
    loaded = ScenarioSpec.from_dict(scenario)
    assert "accel" not in loaded.to_dict()
    assert ScenarioSpec.from_json(loaded.to_json()) == loaded
    for value in ("numpy", "python", "nope"):
        with pytest.raises(ConfigurationError, match="removed"):
            ScenarioSpec.from_dict(dict(scenario, accel=value))


def test_sweep_payload_threads_the_accel_knob_to_workers():
    # The payload carries no accel knob; the worker's run reports the path
    # the width rule chose: backup-exact's pair table outgrows the kernel
    # width, so the kernel engages exactly when NumPy is importable.
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
    assert "accel" not in payload
    record = execute_cell(payload)
    assert record["error"] is None
    accel = record["runs"][0]["extra"]["telemetry"]["accel"]
    assert accel["engaged"] is numpy_available()
    assert accel["active"] == ("numpy" if numpy_available() else "python")


def test_python_accel_is_bit_identical_to_a_numpyless_run(monkeypatch):
    # A run whose pair table never reaches the kernel width takes exactly
    # the pure-Python path: NumPy present or not, the result is identical
    # interaction for interaction (the kernel seed is only drawn when the
    # kernel engages).
    def run():
        return simulate(
            ExactBackupProtocol(),
            96,
            seed=7,
            backend="batch",
            convergence=all_outputs_equal(96),
            check_interval=96,
            max_interactions=500_000,
        )

    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", NEVER)
    reference = run()
    monkeypatch.setattr(vectorized_module, "_np", None)
    assert not numpy_available()
    fallback = run()
    assert _telemetry(fallback)["accel"]["active"] == "python"
    assert fallback.interactions == reference.interactions
    assert fallback.convergence_interaction == reference.convergence_interaction
    assert fallback.output_counts == reference.output_counts
    assert _telemetry(fallback)["sampler"] == _telemetry(reference)["sampler"]


# --------------------------------------------------------------------------
# The factorised kernel: block invalidation, exact weights, draw law
# --------------------------------------------------------------------------


@requires_numpy
def test_factorised_kernel_invalidates_pending_skips_on_count_change():
    kernel = FactorisedPairKernel(
        {"a": 6, "b": 5}, can_change=lambda x, y: True, seed=3
    )
    total_pairs = 11 * 10
    kernel.next_skip(total_pairs)
    assert kernel._skips is not None
    kernel.set_count("a", 7)
    # The pending skips were drawn from Geometric(W/T) at the old W.
    assert kernel._skips is None
    assert kernel.invalidations >= 1


# --------------------------------------------------------------------------
# Factorised pair weights: O(changed) updates, exact differential
# --------------------------------------------------------------------------


def _brute_force_pair_table(counts, can_change):
    total = 0
    table = {}
    for key_a, count_a in counts.items():
        for key_b, count_b in counts.items():
            weight = count_a * (count_a - 1) if key_a == key_b else count_a * count_b
            if weight > 0 and can_change(key_a, key_b):
                table[(key_a, key_b)] = weight
                total += weight
    return total, table


@requires_numpy
def test_factorised_weights_match_full_recomputation_under_mutation_storm():
    # The O(changed) differential: after every batch of count changes the
    # kernel's implied pair-weight table and active weight must equal the
    # O(K^2) from-scratch recomputation the Python path performs — while
    # the kernel's own work counter certifies it only touched the changed
    # keys (one column update each), never the full table.
    rng = random.Random(31337)

    def can_change(key_a, key_b):
        return (hash((key_a, key_b)) % 3) != 0

    keys = [f"m{index}" for index in range(40)]
    counts = {key: rng.randrange(1, 9) for key in keys}
    kernel = FactorisedPairKernel(dict(counts), can_change, seed=5)
    effective_updates = kernel.update_columns
    for step in range(400):
        key = rng.choice(keys)
        new_count = rng.randrange(0, 9)
        if counts.get(key, 0) != new_count:
            effective_updates += 1
        counts[key] = new_count
        kernel.set_count(key, new_count)
        if step % 25 == 0:
            live = {key: count for key, count in counts.items() if count}
            total, table = _brute_force_pair_table(live, can_change)
            assert kernel.active_weight() == total, step
            assert kernel.pair_weights() == table, step
    # O(changed) certification: exactly one column update per effective
    # count change — independent of K and of the number of active pairs.
    assert kernel.update_columns == effective_updates


@requires_numpy
@pytest.mark.stats
def test_factorised_pair_draws_follow_the_conditional_active_law():
    counts = {"a": 4, "b": 3, "c": 2}

    def can_change(key_a, key_b):
        return not (key_a == "c" and key_b == "c")

    kernel = FactorisedPairKernel(dict(counts), can_change, seed=9)
    _total, table = _brute_force_pair_table(counts, can_change)
    observed = Counter(kernel.next_pair() for _ in range(100_000))
    assert chi_square_gof(observed, table) > ALPHA


@requires_numpy
def test_factorised_kernel_compacts_dead_slots():
    # Long churny runs mint transient keys; dead slots must be reclaimed or
    # every key *ever seen* would count against MATRIX_LIMIT and force a
    # spurious Python fallback with only a handful of live keys.
    kernel = FactorisedPairKernel({"live": 5}, can_change=lambda x, y: True, seed=0)
    for index in range(10 * FactorisedPairKernel.COMPACT_MIN_SIZE):
        key = f"transient-{index}"
        kernel.set_count(key, 1)
        kernel.set_count(key, 0)
    assert kernel.size <= 2 * FactorisedPairKernel.COMPACT_MIN_SIZE
    assert kernel.pair_weights() == {("live", "live"): 20}
    assert kernel.active_weight() == 20


@requires_numpy
def test_hooks_fire_for_every_applied_event_across_capacity_fallback(monkeypatch):
    # The event whose key-count update overflows the activity matrix is
    # already applied to the histogram — its on_batch_event hooks must
    # still fire, or hook-based trackers undercount on exactly the runs
    # that trigger the fallback.
    from repro.engine import CallbackHook
    from repro.engine.backends import BatchBackend

    monkeypatch.setattr(FactorisedPairKernel, "MATRIX_LIMIT", 8)
    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", 0)
    applied = []
    original = BatchBackend._apply_transition

    def counting_apply(self, key_a, key_b):
        applied.append(1)
        return original(self, key_a, key_b)

    monkeypatch.setattr(BatchBackend, "_apply_transition", counting_apply)
    events = []
    hook = CallbackHook(on_batch_event=lambda sim, a, b, na, nb: events.append(1))
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=1,
        backend="batch",
        hooks=[hook],
        max_interactions=30_000,
    )
    assert _telemetry(result)["accel"]["active"] == "python"  # the overflow fired
    assert len(events) == len(applied)
    assert events  # the run really applied events


@requires_numpy
def test_factorised_capacity_overflow_falls_back_to_python_mid_run(monkeypatch):
    # A protocol whose live key set outgrows the activity matrix must not
    # die: the backend rebuilds the Python pair table mid-run and reports
    # the fallback.  backup-exact at n=64 visits far more than 8 keys.
    monkeypatch.setattr(FactorisedPairKernel, "MATRIX_LIMIT", 8)
    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", 0)
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=1,
        backend="batch",
        convergence=all_outputs_equal(64),
        check_interval=64,
        max_interactions=500_000,
    )
    accel = _telemetry(result)["accel"]
    assert accel["active"] == "python"
    assert accel["engaged"] is False
    assert "activity matrix" in accel["fallback_reason"]
    # The run stays correct across the switch: the exact count is reached.
    assert result.converged
    assert result.output_counts == Counter({64: 64})


# --------------------------------------------------------------------------
# End-to-end: regimes, fallbacks, and cross-path equivalence
# --------------------------------------------------------------------------


# --------------------------------------------------------------------------
# End-to-end: the width rule on both sides, cross-path equivalence
# --------------------------------------------------------------------------


@requires_numpy
def test_wide_pair_tables_engage_the_factorised_kernel():
    # backup-exact's pair table grows past KERNEL_MIN_PAIRS within its
    # first events: the Fenwick sampler is retired and the kernel drives
    # the rest of the run.
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=11,
        backend="batch",
        max_interactions=150_000,
    )
    telemetry = _telemetry(result)
    assert telemetry["accel"] == {
        "active": "numpy", "numpy_available": True, "engaged": True,
    }
    stats = telemetry["sampler"]
    assert stats["strategy"] == "factorised"
    (retired,) = stats["retired"]
    assert retired["strategy"] == "fenwick"
    assert retired["retired_by"] == "accel-engage"
    kinds = [event["kind"] for event in telemetry["events"]]
    assert kinds.count("accel-engage") == 1
    assert "sampler-swap" not in kinds


@requires_numpy
@pytest.mark.parametrize("n, sources", [(600, 1), (712, 2), (840, 4)])
def test_sweep_service_epidemic_cells_stay_on_python(n, sources):
    # The epidemic never holds more than a couple of active pair types, far
    # below the kernel width; per-event NumPy overhead would be a pure loss.
    from repro.primitives.epidemic import OneWayEpidemic

    result = simulate(
        OneWayEpidemic(source_count=sources),
        n,
        seed=3,
        backend="batch",
        convergence=all_outputs_equal(1),
    )
    assert result.converged
    telemetry = _telemetry(result)
    assert telemetry["accel"]["active"] == "numpy"
    assert telemetry["accel"]["engaged"] is False
    assert telemetry["sampler"]["strategy"] == "fenwick"
    assert "retired" not in telemetry["sampler"]
    assert telemetry["events"] == []


@requires_numpy
def test_pruning_numpy_path_reaches_the_exact_count():
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=3,
        backend="batch",
        convergence=all_outputs_equal(256),
        check_interval=256,
        max_interactions=2_000_000,
    )
    assert _telemetry(result)["accel"]["engaged"] is True
    assert _telemetry(result)["sampler"]["strategy"] == "factorised"
    assert result.converged
    assert result.output_counts == Counter({256: 256})


@requires_numpy
@pytest.mark.stats
def test_backup_exact_convergence_laws_match_across_accel_paths(monkeypatch):
    # The accelerated chain uses different random streams but must follow
    # the identical law: KS compatibility of the convergence-time
    # distributions of backup-exact on the kernel (engaged from the first
    # event) and on the Python sampler (kernel held off).
    n = 96
    samples = 30

    def convergence_times(width, offset):
        monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", width)
        times = []
        for seed in range(samples):
            result = simulate(
                ExactBackupProtocol(),
                n,
                seed=offset + seed,
                backend="batch",
                convergence=all_outputs_equal(n),
                check_interval=n,
                confirm_checks=1,
                max_interactions=3_000_000,
            )
            assert result.converged, (width, seed)
            assert _telemetry(result)["accel"]["engaged"] == (width == 0)
            times.append(result.convergence_interaction)
        return times

    python_times = convergence_times(NEVER, 0)
    numpy_times = convergence_times(0, 10_000)
    statistic = ks_statistic(python_times, numpy_times)
    p_value = ks_pvalue(statistic, samples, samples)
    assert p_value > ALPHA, (statistic, p_value)


@requires_numpy
def test_scenario_churn_runs_through_the_engaged_kernel():
    from repro.scenarios.runner import execute_scenario_cell
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec(
        name="c",
        protocol="backup-exact",
        ns=[256],
        seeds_per_cell=1,
        backends=["batch"],
        events=[{"kind": "replace", "at_interactions": 20_000, "fraction": 0.1}],
        max_checks=20,
    )
    cell = spec.cells()[0]
    record = execute_scenario_cell(
        {
            "cell_id": cell.cell_id,
            "n": cell.n,
            "backend": cell.backend,
            "params": dict(cell.params),
            "seeds": list(cell.seeds),
            "spec": spec.to_dict(),
        }
    )
    assert record["error"] is None
    run = record["runs"][0]
    assert run["extra"]["timeline"][0]["fired"] is True
    telemetry = run["extra"]["telemetry"]
    engaged_at = next(
        event["at"] for event in telemetry["events"] if event["kind"] == "accel-engage"
    )
    assert engaged_at < 20_000
    assert telemetry["accel"]["engaged"] is True
    # Churn events flow through the kernel's resync path; the run completes
    # with the population conserved.
    assert run["n"] == 256
