"""Tests for the factorised pair kernel of the pruning regime.

The batch backend builds the pure-Python factorised kernel when it is
constructed, and it is the pruning regime's only draw path.  The engine
imports no NumPy, which a subprocess run checks.  The kernel is checked by
exact differential tests of its pair weights against a from-scratch
recomputation and by chi-square checks of its draws; end-to-end laws are
checked in ``tests/test_exact_laws.py``.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.engine
from repro.counting.backup import ExactBackupProtocol
from repro.engine import ConfigurationError, Simulator, all_outputs_equal, simulate
from repro.engine.stats import chi_square_gof
from repro.engine.vectorized import FactorisedPairKernel

#: Generous significance threshold (see tests/test_samplers.py).
ALPHA = 1e-3


def _telemetry(result):
    return result.extra["telemetry"]


# --------------------------------------------------------------------------
# The engine runs the kernel without NumPy
# --------------------------------------------------------------------------


def test_engaged_kernel_runs_without_importing_numpy():
    # A fresh interpreter runs backup-exact on the kernel; nothing on that
    # path may pull NumPy in.
    src = Path(repro.engine.__file__).resolve().parents[2]
    code = (
        "import sys\n"
        "from repro.counting.backup import ExactBackupProtocol\n"
        "from repro.engine import simulate\n"
        "result = simulate(ExactBackupProtocol(), 256, seed=11, backend='batch',"
        " max_interactions=150_000)\n"
        "telemetry = result.extra['telemetry']\n"
        "assert telemetry['sampler']['strategy'] == 'factorised'\n"
        "assert 'numpy' not in sys.modules, 'the engine imported numpy'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


# --------------------------------------------------------------------------
# No knob: the removed accel knob is refused everywhere
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
    # The payload carries no accel knob, and the worker's run reports no
    # accel record: the pruning regime has one draw path, the kernel.
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
    telemetry = record["runs"][0]["extra"]["telemetry"]
    assert "accel" not in telemetry
    assert telemetry["sampler"]["strategy"] == "factorised"


# --------------------------------------------------------------------------
# The factorised kernel: skips follow the current weights
# --------------------------------------------------------------------------


def test_factorised_kernel_count_change_reaches_the_next_skip():
    # Every ordered pair is active except ("b", "b").  With a = 1, b = 100
    # only 200 of the 10,100 ordered pairs are active and skips are long;
    # a count change to a = 100, b = 1 makes every ordered pair active, so
    # the very next skip must be 0, not one drawn from the old weight.
    kernel = FactorisedPairKernel(
        {"a": 1, "b": 100},
        can_change=lambda x, y: x == "a" or y == "a",
        rng=random.Random(3),
    )
    ordered_pairs = 101 * 100
    assert kernel.active_weight() == 200
    assert kernel.next_skip(ordered_pairs) > 0
    kernel.set_count("a", 100)
    kernel.set_count("b", 1)
    assert kernel.active_weight() == ordered_pairs
    assert [kernel.next_skip(ordered_pairs) for _ in range(5)] == [0] * 5
    kernel.set_count("a", 1)
    kernel.set_count("b", 100)
    assert sum(kernel.next_skip(ordered_pairs) for _ in range(5)) > 0


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


def test_factorised_weights_match_full_recomputation_under_mutation_storm():
    # The O(changed) differential: after every batch of count changes the
    # kernel's implied pair-weight table and active weight must equal the
    # O(K^2) from-scratch recomputation — while
    # the kernel's own work counter certifies it only touched the changed
    # keys (one column update each), never the full table.
    rng = random.Random(31337)

    def can_change(key_a, key_b):
        return (hash((key_a, key_b)) % 3) != 0

    keys = [f"m{index}" for index in range(40)]
    counts = {key: rng.randrange(1, 9) for key in keys}
    kernel = FactorisedPairKernel(dict(counts), can_change, random.Random(5))
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


@pytest.mark.stats
def test_factorised_pair_draws_follow_the_conditional_active_law():
    counts = {"a": 4, "b": 3, "c": 2}

    def can_change(key_a, key_b):
        return not (key_a == "c" and key_b == "c")

    kernel = FactorisedPairKernel(dict(counts), can_change, random.Random(9))
    _total, table = _brute_force_pair_table(counts, can_change)
    observed = Counter(kernel.next_pair() for _ in range(100_000))
    assert chi_square_gof(observed, table) > ALPHA

    # A wide key set with random activity, dead slots (count 0, never
    # drawable: chi_square_gof rejects draws outside the table) and active
    # diagonals, one of them at count 1 — a pair no two agents realise.
    rng = random.Random(4242)
    keys = [f"w{index}" for index in range(44)]
    active = {(key_a, key_b): rng.random() < 0.5 for key_a in keys for key_b in keys}
    lone, pair_diag = keys[0], keys[1]
    active[(lone, lone)] = active[(pair_diag, pair_diag)] = True
    counts = {key: rng.randrange(1, 6) for key in keys}
    counts[lone] = 1
    counts[pair_diag] = 3
    kernel = FactorisedPairKernel(
        dict(counts), lambda a, b: active[(a, b)], random.Random(17)
    )
    for key in keys[-4:]:
        kernel.set_count(key, 0)
        del counts[key]
    assert kernel.stats()["dead_slots"] == 4
    _total, table = _brute_force_pair_table(counts, lambda a, b: active[(a, b)])
    assert (pair_diag, pair_diag) in table and (lone, lone) not in table
    observed = Counter(kernel.next_pair() for _ in range(150_000))
    assert observed[(lone, lone)] == 0
    assert kernel.rejections > 0  # the count-1 diagonal was proposed, and refused
    assert chi_square_gof(observed, table) > ALPHA


def test_factorised_kernel_compacts_dead_slots():
    # Long churny runs mint transient keys; dead slots must be reclaimed or
    # every key *ever seen* would keep a slot and a term in every draw.
    kernel = FactorisedPairKernel(
        {"live": 5}, can_change=lambda x, y: True, rng=random.Random(0)
    )
    for index in range(10 * FactorisedPairKernel.COMPACT_MIN_SIZE):
        key = f"transient-{index}"
        kernel.set_count(key, 1)
        kernel.set_count(key, 0)
    assert kernel.size <= 2 * FactorisedPairKernel.COMPACT_MIN_SIZE
    assert kernel.pair_weights() == {("live", "live"): 20}
    assert kernel.active_weight() == 20


# --------------------------------------------------------------------------
# Fault events through the fused pruning loop
# --------------------------------------------------------------------------


def _kernel_pair_table(backend):
    keys = backend._keys
    return {
        (keys[ident_a], keys[ident_b]): weight
        for (ident_a, ident_b), weight in backend._pair_kernel.pair_weights().items()
    }


def test_fresh_keys_minted_by_a_fault_event_reach_the_kernel():
    # A fault event at interaction 300 mints 20 keys the kernel has never
    # seen.  The loop must go on drawing from the resynced kernel, whose
    # implied pair table then tracks the histogram exactly at the event and
    # at every later checkpoint, up to a budget that ends the run before
    # its fixed point.
    from repro.engine import CallbackHook, TimelineEvent
    from repro.engine.rng import make_rng

    fresh = itertools.count(10_000)
    minted = []

    def corrupt_key(key, rng):
        fields = list(key)
        index = next(index for index, field in enumerate(fields) if type(field) is int)
        fields[index] = next(fresh)
        minted.append(tuple(fields))
        return minted[-1]

    protocol = ExactBackupProtocol()
    checked = []

    def check_table(simulator, *details):
        if minted:
            _total, table = _brute_force_pair_table(
                simulator.backend.state_key_counts(), protocol.can_interaction_change
            )
            assert _kernel_pair_table(simulator.backend) == table
            checked.append(simulator.interactions)

    def inject(simulator):
        rng = make_rng(1, "failure-injection")
        return {"changed": simulator.backend.corrupt_histogram(20, corrupt_key, rng)}

    simulator = Simulator(
        protocol,
        64,
        seed=1,
        backend="batch",
        hooks=[CallbackHook(on_checkpoint=check_table, on_timeline_event=check_table)],
    )
    result = simulator.run(
        max_interactions=1_500,
        timeline=[TimelineEvent(at=300, kind="corrupt", apply=inject)],
        convergence=lambda view: False,
        check_interval=8,
        stop_when_converged=False,
    )
    assert result.extra["timeline"][0]["fired"]
    assert len(minted) == 20
    assert checked[0] == 300
    assert len(checked) > 100
    assert result.stopped_reason == "budget"
    assert result.interactions == 1_500
    _total, table = _brute_force_pair_table(
        simulator.backend.state_key_counts(), protocol.can_interaction_change
    )
    assert _kernel_pair_table(simulator.backend) == table


# --------------------------------------------------------------------------
# End-to-end: the kernel from the first event
# --------------------------------------------------------------------------


def test_wide_pair_tables_engage_the_factorised_kernel():
    # The kernel drives the pruning regime from construction: nothing is
    # retired, swapped or logged on the way.
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=11,
        backend="batch",
        max_interactions=150_000,
    )
    telemetry = _telemetry(result)
    assert "accel" not in telemetry
    stats = telemetry["sampler"]
    assert stats["regime"] == "pruning"
    assert stats["strategy"] == "factorised"
    assert "retired" not in stats
    assert telemetry["events"] == []


def test_pruning_kernel_reaches_the_exact_count():
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=3,
        backend="batch",
        convergence=all_outputs_equal(256),
        check_interval=256,
        max_interactions=2_000_000,
    )
    assert _telemetry(result)["sampler"]["strategy"] == "factorised"
    assert result.converged
    assert result.output_counts == Counter({256: 256})


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
    assert telemetry["sampler"]["strategy"] == "factorised"
    # Churn events flow through the kernel's resync path; the run completes
    # with the population conserved.
    assert run["n"] == 256
