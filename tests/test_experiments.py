"""Tests of the parallel experiment-sweep subsystem (PR 2 tentpole)."""

import json
import math
import os

import pytest

from repro.engine.errors import ConfigurationError, ExperimentError
from repro.experiments import (
    BudgetPolicy,
    SweepRunner,
    SweepSpec,
    build_document,
    builtin_names,
    builtin_specs,
    completed_cell_ids,
    execute_cell,
    fit_power_law,
    load_document,
    merge_cells,
    resolve_builtin,
    resolve_protocol,
    sample_stats,
    sweep_json_path,
    write_sweep,
)
from repro.experiments.cli import main as sweep_main


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


# ----------------------------------------------------------------- artifacts
def test_artifact_write_load_resume_cycle(tmp_path):
    spec = _tiny_spec()
    records = SweepRunner(spec, workers=1).run()
    document = build_document(spec, records, workers=1)
    paths = write_sweep(document, str(tmp_path), spec)
    assert os.path.exists(paths["json"]) and os.path.exists(paths["csv"])

    loaded = load_document(paths["json"])
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


def test_load_document_rejects_foreign_json(tmp_path):
    path = tmp_path / "SWEEP_bogus.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ExperimentError):
        load_document(str(path))
    assert load_document(str(tmp_path / "missing.json")) is None


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


def test_cli_list_and_dump(capsys):
    assert sweep_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out
    assert sweep_main(["--dump-spec", "counting-curve"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert SweepSpec.from_dict(dumped).name == "counting-curve"
    assert sweep_main(["--dump-spec", "nope"]) == 2


def test_cli_custom_spec_file(tmp_path):
    spec = _tiny_spec(name="custom")
    spec_path = tmp_path / "custom.json"
    spec_path.write_text(spec.to_json())
    assert sweep_main(
        ["--spec", str(spec_path), "--workers", "1", "--output-dir", str(tmp_path), "--quiet"]
    ) == 0
    document = load_document(str(tmp_path / "SWEEP_custom.json"))
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
    with pytest.raises(ConfigurationError):
        resolve_builtin("definitely-not-a-builtin")


def test_every_committed_artifact_spec_loads_through_from_dict():
    # Committed artifacts embed the spec that produced them; each must load
    # through its layer's from_dict (specs of earlier releases record the
    # removed sampler/accel knobs at "auto", which still load).
    from pathlib import Path

    from repro.scenarios import ScenarioSpec, SearchSpec

    layers = {"SWEEP_": SweepSpec, "SCENARIO_": ScenarioSpec, "FRONTIER_": SearchSpec}
    root = Path(__file__).resolve().parent.parent
    loaded = []
    for prefix, layer in layers.items():
        for path in sorted(root.glob(f"{prefix}*.json")):
            spec = layer.from_dict(json.loads(path.read_text())["spec"])
            document = spec.to_dict()
            fields = set(document) | set(document.get("scenario", {}))
            assert not {"sampler", "accel"} & fields, path.name
            loaded.append(path.name)
    assert {name.split("_")[0] for name in loaded} == {"SWEEP", "SCENARIO", "FRONTIER"}
