"""Tests of the parallel experiment-sweep subsystem (PR 2 tentpole)."""

import json
import math
import multiprocessing
import os
import threading
import time

import pytest

from repro.engine.errors import ConfigurationError, ExperimentError
from repro.experiments import (
    BudgetPolicy,
    SweepRunner,
    SweepSpec,
    build_document,
    builtin_specs,
    execute_cell,
    fit_power_law,
    resolve_protocol,
    sample_stats,
    write_csv,
)
from repro.experiments.cli import main as sweep_main
from repro.experiments.runner import PoolExecutor, cell_payload
from repro.kinds import KINDS
from repro.resume import completed_cell_ids, merge_cells, write_report
from repro.scenarios.cli import main as chaos_main

SWEEP = KINDS["sweep"]


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        protocol="one-way-epidemic",
        ns=[8, 16],
        seeds_per_cell=2,
        backend="batch",
        budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


# ---------------------------------------------------------------------- spec
def test_spec_json_round_trip():
    spec = _tiny_spec(param_grid={"source_count": [1, 2]}, description="round trip")
    clone = SweepSpec.from_json(spec.to_json())
    assert clone.to_dict() == spec.to_dict()
    assert [cell.cell_id for cell in clone.cells()] == [
        cell.cell_id for cell in spec.cells()
    ]


def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        _tiny_spec(protocol="no-such-protocol")
    with pytest.raises(ConfigurationError):
        _tiny_spec(ns=[])
    with pytest.raises(ConfigurationError):
        _tiny_spec(backend="gpu")
    with pytest.raises(ConfigurationError):
        _tiny_spec(seeds_per_cell=0)
    with pytest.raises(ConfigurationError):
        SweepSpec.from_dict({"name": "x", "protocol": "one-way-epidemic", "ns": [8], "bogus": 1})
    with pytest.raises(ConfigurationError):
        SweepSpec.from_json("{not json")


def test_cell_seeds_are_deterministic_and_distinct():
    spec = _tiny_spec()
    cells_a = spec.cells()
    cells_b = _tiny_spec().cells()
    assert [cell.seeds for cell in cells_a] == [cell.seeds for cell in cells_b]
    all_seeds = [seed for cell in cells_a for seed in cell.seeds]
    assert len(set(all_seeds)) == len(all_seeds)
    reseeded = _tiny_spec(base_seed=1).cells()
    assert [cell.seeds for cell in reseeded] != [cell.seeds for cell in cells_a]


def test_param_grid_expands_cartesian_product():
    spec = _tiny_spec(param_grid={"source_count": [1, 2, 3]})
    cells = spec.cells()
    assert len(cells) == 3 * len(spec.ns)
    assert len({cell.cell_id for cell in cells}) == len(cells)
    assert {cell.params["source_count"] for cell in cells} == {1, 2, 3}


def test_budget_policy_and_check_interval():
    policy = BudgetPolicy(factor=2.0, n_exponent=2.0, log_exponent=0.0)
    assert policy.budget(100) == 20_000
    spec = _tiny_spec(budget=policy, max_checks=10)
    # The cadence is stretched so a run never makes more than max_checks checks.
    assert spec.check_interval(100) == 2_000


# ----------------------------------------------------------------- aggregate
def test_sample_stats_quantiles():
    stats = sample_stats([1, 2, 3, 4, 5])
    assert stats["count"] == 5
    assert stats["mean"] == 3
    assert stats["median"] == 3
    assert stats["min"] == 1 and stats["max"] == 5
    assert sample_stats([]) is None


def test_fit_power_law_recovers_exact_exponent():
    points = [(n, 3.0 * n**2) for n in (100, 1_000, 10_000)]
    fit = fit_power_law(points)
    assert abs(fit["exponent"] - 2.0) < 1e-9
    assert abs(fit["coefficient"] - 3.0) < 1e-6
    assert fit["r_squared"] > 0.999999
    assert fit_power_law([(100, 5.0)]) is None  # one size cannot be fitted


# -------------------------------------------------------------------- runner
def test_execute_cell_runs_and_summarises():
    spec = _tiny_spec()
    cell = spec.cells()[0]
    from repro.experiments.runner import cell_payload

    record = execute_cell(cell_payload(spec, cell))
    assert record["error"] is None
    assert len(record["runs"]) == spec.seeds_per_cell
    assert record["stats"]["converged_runs"] == spec.seeds_per_cell
    assert record["stats"]["convergence_interactions"]["mean"] > 0


def test_execute_cell_captures_failures_per_cell():
    spec = _tiny_spec()
    cell = spec.cells()[0]
    from repro.experiments.runner import cell_payload

    payload = cell_payload(spec, cell)
    payload["backend"] = "gpu"  # force a ConfigurationError inside the worker
    record = execute_cell(payload)
    assert record["error"] is not None and "gpu" in record["error"]
    assert record["runs"] == []


def test_runner_serial_and_parallel_agree_on_results():
    spec = _tiny_spec()
    serial = SweepRunner(spec, workers=1).run()
    parallel = SweepRunner(spec, workers=2).run()
    assert [record["cell_id"] for record in serial] == [
        record["cell_id"] for record in parallel
    ]
    # Same derived seeds -> identical run summaries, no matter the strategy.
    strip = lambda records: [
        [{k: run[k] for k in ("seed", "interactions", "converged")} for run in record["runs"]]
        for record in records
    ]
    assert strip(serial) == strip(parallel)


class _FakeTask:
    def __init__(self, fn, payload, fail):
        self.fn, self.payload, self.fail = fn, payload, fail

    def get(self, timeout=None):
        if self.fail:
            raise multiprocessing.TimeoutError("worker lost")
        return self.fn(self.payload)


class _FakePool:
    def __init__(self, fail):
        self.fail = fail

    def apply_async(self, fn, args):
        return _FakeTask(fn, args[0], self.fail)

    def terminate(self):
        pass

    def join(self):
        pass


def _pool_payloads():
    spec = _tiny_spec()
    return [cell_payload(spec, cell) for cell in spec.cells()]


def test_worker_crash_is_retried_on_a_rebuilt_pool():
    pools = []

    def flaky_factory(workers):
        pools.append(workers)
        return _FakePool(fail=len(pools) == 1)  # first pool loses every task

    payloads = _pool_payloads()
    with PoolExecutor(
        execute_cell, workers=2, pool_factory=flaky_factory
    ) as pool:
        records = pool.map(payloads)
    assert len(pools) == 2  # the crashed pool was rebuilt
    assert [record["cell_id"] for record in records] == [
        payload["cell_id"] for payload in payloads
    ]
    assert all(record["error"] is None and record["runs"] for record in records)


def test_worker_crash_exhausting_retries_fails_loudly():
    def dead_factory(workers):
        return _FakePool(fail=True)

    payloads = _pool_payloads()
    with PoolExecutor(
        execute_cell, workers=2, pool_factory=dead_factory
    ) as pool:
        records = pool.map(payloads)
    assert len(records) == len(payloads)
    for record in records:
        assert "worker lost after 2 attempts" in record["error"]
        assert record["runs"] == []


def _exit_on_first_attempt(payload):
    """Kill the worker process on the first attempt, return a record after."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return {"cell_id": payload["cell_id"], "error": None}


def test_a_dead_pool_worker_is_detected_and_its_tasks_retried(tmp_path):
    # A one-worker spawn pool whose worker dies on the first task: neither
    # that task nor the one queued behind it ever returns from that pool.
    spawn = multiprocessing.get_context("spawn")
    pools = []

    def one_worker(workers):
        pools.append(spawn.Pool(1))
        return pools[-1]

    marker = str(tmp_path / "died")
    payloads = [{"cell_id": cell_id, "marker": marker} for cell_id in ("c0", "c1")]
    records = []
    with PoolExecutor(_exit_on_first_attempt, workers=1, pool_factory=one_worker) as pool:
        mapping = threading.Thread(
            target=lambda: records.extend(pool.map(payloads)), daemon=True
        )
        started = time.perf_counter()
        mapping.start()
        mapping.join(30)
        assert not mapping.is_alive(), "map waited for a task its dead worker held"
    assert time.perf_counter() - started < 20
    assert os.path.exists(marker)
    # The pool replaced its dead worker itself, and the retry ran there: two
    # worker processes in all.
    assert len(pools) == 1
    assert records == [{"cell_id": "c0", "error": None}, {"cell_id": "c1", "error": None}]


# ----------------------------------------------------------------- artifacts
def test_artifact_write_load_resume_cycle(tmp_path):
    spec = _tiny_spec()
    records = SweepRunner(spec, workers=1).run()
    document = build_document(spec, records, workers=1)
    json_path = SWEEP.path(str(tmp_path), spec.name)
    csv_path = SWEEP.path(str(tmp_path), spec.name, ".csv")
    write_report(document, json_path)
    write_csv(document, csv_path)
    assert os.path.exists(json_path) and os.path.exists(csv_path)

    loaded = SWEEP.load_document(json_path)
    assert loaded["name"] == spec.name
    assert completed_cell_ids(loaded, spec) == {cell.cell_id for cell in spec.cells()}

    # Raising seeds_per_cell invalidates every resumed cell.
    widened = _tiny_spec(seeds_per_cell=3)
    assert completed_cell_ids(loaded, widened) == set()

    # merge_cells prefers fresh records and keeps grid order.
    fresh = [dict(records[0], wall_time_s=123.0)]
    merged = merge_cells(loaded, fresh, spec)
    assert [cell["cell_id"] for cell in merged] == [cell.cell_id for cell in spec.cells()]
    assert merged[0]["wall_time_s"] == 123.0


def test_merge_cells_keeps_previous_success_over_fresh_failure():
    spec = _tiny_spec()
    cells = spec.cells()

    def record(cell, error=None):
        return {
            "cell_id": cell.cell_id,
            "seeds": list(cell.seeds),
            "runs": [] if error else [{"seed": seed} for seed in cell.seeds],
            "stats": None if error else {},
            "error": error,
        }

    previous = {"cells": [record(cell) for cell in cells]}
    # A transient re-run failure must not downgrade a complete success ...
    merged = merge_cells(previous, [record(cells[0], error="worker lost")], spec)
    assert merged[0]["error"] is None
    assert merged[0]["runs"]
    # ... but a fresh success still wins over the previous record,
    fresh_ok = dict(record(cells[0]), marker=True)
    assert merge_cells(previous, [fresh_ok], spec)[0]["marker"] is True
    # and a fresh failure does replace a previously *failed* cell.
    broken_previous = {"cells": [record(cells[0], error="old")]}
    merged = merge_cells(broken_previous, [record(cells[0], error="new")], spec)
    assert merged[0]["error"] == "new"


def test_documents_from_other_code_versions_are_stale():
    from repro.fingerprint import code_fingerprint, spec_sha256

    spec = _tiny_spec()
    records = SweepRunner(spec, workers=1).run()
    document = build_document(spec, records, workers=1)
    assert document["code_fingerprint"] == code_fingerprint()
    assert document["spec_sha256"] == spec_sha256(spec.to_dict())

    # A matching stamp resumes; any other stamp invalidates everything.
    assert completed_cell_ids(document, spec)
    foreign = dict(document, code_fingerprint="0.0.0+000000000000")
    assert completed_cell_ids(foreign, spec) == set()
    assert merge_cells(foreign, [], spec) == []
    # Pre-stamp documents (no field) are still accepted.
    unstamped = {key: value for key, value in document.items() if key != "code_fingerprint"}
    assert completed_cell_ids(unstamped, spec)


@pytest.mark.parametrize("kind", list(KINDS))
def test_load_document_rejects_foreign_json(tmp_path, kind):
    entry = KINDS[kind]
    foreign = tmp_path / entry.path("", "bogus")
    foreign.write_text('{"hello": 1}')
    with pytest.raises(ExperimentError, match=f"not a {entry.artifact} artifact"):
        entry.load_document(str(foreign))
    # An artifact of every other kind is refused too.
    for other in KINDS.values():
        if other is not entry:
            path = tmp_path / other.path("", "other")
            path.write_text(json.dumps({"artifact": other.artifact}))
            with pytest.raises(ExperimentError, match=f"not a {entry.artifact} artifact"):
                entry.load_document(str(path))
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(ExperimentError, match=f"cannot read {entry.artifact} artifact"):
        entry.load_document(str(broken))
    assert entry.load_document(str(tmp_path / "missing.json")) is None


def test_sweep_fits_appear_in_document():
    spec = _tiny_spec(ns=[8, 16, 32])
    records = SweepRunner(spec, workers=1).run()
    document = build_document(spec, records, workers=1)
    fit = document["fits"]["convergence_interactions"]
    assert fit is not None and fit["points"] == 3
    # The epidemic completes in O(n log n): the exponent sits near 1.
    assert 0.5 < fit["exponent"] < 2.0


# ---------------------------------------------------------------------- CLI
def test_cli_smoke_and_resume(tmp_path, capsys):
    assert sweep_main(["--smoke", "--workers", "1", "--output-dir", str(tmp_path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "scaling fit" in out and "SWEEP_counting-smoke.json" in out

    # Second invocation resumes every cell without re-running anything.
    assert sweep_main(
        ["--smoke", "--workers", "1", "--output-dir", str(tmp_path), "--quiet", "--resume"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 run now, 2 resumed" in out


CLI_MAINS = {"sweep": sweep_main, "scenario": chaos_main}


@pytest.mark.parametrize("kind", list(CLI_MAINS))
def test_cli_contract(kind, tmp_path, capsys):
    main, entry = CLI_MAINS[kind], KINDS[kind]
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in entry.builtin_specs())

    assert main(["--dump-spec", entry.smoke]) == 0
    dumped = capsys.readouterr().out
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumped)
    run = ["--spec", str(spec_path), "--workers", "1", "--quiet", "--output-dir", str(tmp_path)]
    assert main(run) == 0
    capsys.readouterr()
    document = entry.load_document(entry.path(str(tmp_path), entry.smoke))
    assert document["spec"] == json.loads(dumped)
    assert entry.spec_class().from_json(dumped).to_dict() == (
        entry.resolve_builtin(entry.smoke).to_dict()
    )

    assert main(["--dump-spec", "nope"]) == 2
    assert "unknown builtin" in capsys.readouterr().err
    assert main(["--spec", str(tmp_path / "missing.json")]) == 2


def test_cli_custom_spec_file(tmp_path):
    spec = _tiny_spec(name="custom")
    spec_path = tmp_path / "custom.json"
    spec_path.write_text(spec.to_json())
    assert sweep_main(
        ["--spec", str(spec_path), "--workers", "1", "--output-dir", str(tmp_path), "--quiet"]
    ) == 0
    document = SWEEP.load_document(SWEEP.path(str(tmp_path), "custom"))
    assert len(document["cells"]) == len(spec.cells())
    assert not document["failed_cells"]


# ------------------------------------------------------------------ builtins
def test_builtin_specs_are_valid_and_cover_counting():
    specs = builtin_specs()
    assert "counting-curve" in specs
    headline = specs["counting-curve"]
    assert headline.ns == [1_000, 10_000, 100_000]
    assert headline.seeds_per_cell >= 5
    assert resolve_protocol(headline.protocol).counting
    for spec in specs.values():
        assert spec.cells()  # expands without error
    with pytest.raises(ConfigurationError, match="unknown builtin sweep"):
        SWEEP.resolve_builtin("definitely-not-a-builtin")


def test_every_committed_artifact_spec_loads_through_from_dict():
    # Every committed artifact loads through its kind's loader, embeds a
    # spec that loads through the kind's from_dict (none records the
    # removed sampler/accel knobs any more), is named after a builtin of
    # its own kind, and carries its provenance: a code fingerprint and the
    # content address of that builtin as it stands, so an artifact whose
    # builtin changed must be regenerated.
    from pathlib import Path

    from repro.fingerprint import spec_sha256

    root = Path(__file__).resolve().parent.parent
    loaded = set()
    for kind in KINDS.values():
        builtins = kind.builtin_specs()
        for path in sorted(root.glob(f"{kind.prefix}*.json")):
            document = kind.load_document(str(path))
            spec = kind.spec_class().from_dict(document["spec"])
            assert not {"sampler", "accel"} & set(document["spec"]), path.name
            assert document["name"] == spec.name in builtins, path.name
            assert document.get("code_fingerprint"), path.name
            builtin = builtins[spec.name].to_dict()
            assert document.get("spec_sha256") == spec_sha256(builtin), path.name
            loaded.add(kind.kind)
    assert loaded == set(KINDS)


def test_every_committed_profile_is_stamped_and_matches_its_artifact():
    # A committed PROFILE_ carries the same provenance as the SWEEP_ or
    # SCENARIO_ document it was written from: the name of a builtin of one
    # kind, a code fingerprint and that builtin's current content address.
    # Where that document is committed too, the profile is its telemetry.
    from pathlib import Path

    from repro.fingerprint import spec_sha256
    from repro.obs.profile import PROVENANCE

    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("PROFILE_*.json"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            profile = json.load(handle)
        name = profile.get("name")
        assert path.name == f"PROFILE_{name}.json"
        (kind,) = [kind for kind in KINDS.values() if name in kind.builtin_specs()]
        assert profile.get("code_fingerprint"), path.name
        builtin = kind.builtin_specs()[name].to_dict()
        assert profile.get("spec_sha256") == spec_sha256(builtin), path.name
        companion = Path(kind.path(str(root), name))
        if companion.exists():
            document = kind.load_document(str(companion))
            assert profile["code_fingerprint"] == document["code_fingerprint"], path.name
            telemetry = {key: value for key, value in profile.items() if key not in PROVENANCE}
            assert telemetry == document["telemetry"], path.name
