"""Smoke tests for the repro-bench harness."""

import json

import pytest

from repro.bench import run_benchmark
from repro.bench.cli import main
from repro.bench.runner import (
    BUDGET_FAIL_FACTOR,
    SMOKE_BUDGETS_S,
    BenchCase,
    check_smoke_budgets,
    run_case,
    smoke_cases,
    write_report,
)
from repro.engine.convergence import all_outputs_equal
from repro.primitives.epidemic import OneWayEpidemic


def _tiny_case(backend):
    return BenchCase(
        protocol_name="one-way-epidemic",
        make_protocol=lambda n: OneWayEpidemic(),
        make_convergence=lambda n: all_outputs_equal(1),
        backend=backend,
        n=64,
    )


def test_run_case_produces_entry():
    entry = run_case(_tiny_case("batch"), base_seed=1)
    assert entry.backend == "batch"
    assert entry.n == 64
    assert entry.converged
    assert entry.transition_calls <= entry.interactions


def test_run_benchmark_pairs_backends_into_comparisons(tmp_path):
    report = run_benchmark(cases=[_tiny_case("agent"), _tiny_case("batch")])
    assert len(report["entries"]) == 2
    assert len(report["comparisons"]) == 1
    comparison = report["comparisons"][0]
    assert comparison["transition_call_reduction"] >= 1
    # No headline-size case in this grid.
    assert report["headline"] is None
    path = tmp_path / "bench.json"
    write_report(report, str(path))
    assert json.loads(path.read_text())["benchmark"] == "batch_backend"


def test_cli_smoke_writes_report(tmp_path, capsys):
    output = tmp_path / "BENCH_batch_backend.json"
    exit_code = main(["--smoke", "--quiet", "--output", str(output)])
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["smoke"] is True
    assert report["entries"]
    captured = capsys.readouterr()
    assert "wrote" in captured.out


# --------------------------------------------------------------------------
# The perf canary (--check-budget)
# --------------------------------------------------------------------------


def test_smoke_budgets_cover_the_smoke_grid_exactly():
    # Drift guard: every smoke workload must have a committed budget and
    # every committed budget must name a smoke workload — otherwise the
    # canary silently checks less (or nothing) after a grid edit.
    grid = {(case.protocol_name, case.backend, case.n) for case in smoke_cases()}
    assert grid == set(SMOKE_BUDGETS_S)


def _canary_report(walls=None, extra_entries=()):
    """Synthetic smoke report covering every committed budget key."""
    walls = walls or {}
    entries = [
        {
            "protocol": protocol,
            "backend": backend,
            "n": n,
            "wall_time_s": walls.get((protocol, backend, n), 0.01),
        }
        for (protocol, backend, n) in SMOKE_BUDGETS_S
    ]
    entries.extend(extra_entries)
    return {"entries": entries}


def test_check_smoke_budgets_passes_within_budget():
    rows, ok = check_smoke_budgets(_canary_report())
    assert ok
    assert len(rows) == len(SMOKE_BUDGETS_S)
    assert all(row["ok"] and row["ratio"] <= 1.0 for row in rows)


def test_check_smoke_budgets_fails_on_gross_regression():
    key = ("one-way-epidemic", "agent", 256)
    gross = SMOKE_BUDGETS_S[key] * BUDGET_FAIL_FACTOR * 2
    rows, ok = check_smoke_budgets(_canary_report(walls={key: gross}))
    assert not ok
    regressed = next(row for row in rows if row["workload"] == key)
    assert not regressed["ok"]
    assert regressed["ratio"] > BUDGET_FAIL_FACTOR
    # A slow-but-not-gross workload (within the fail factor) still passes.
    mild = SMOKE_BUDGETS_S[key] * (BUDGET_FAIL_FACTOR - 1)
    _rows, ok = check_smoke_budgets(_canary_report(walls={key: mild}))
    assert ok


def test_check_smoke_budgets_tolerates_uncovered_new_workloads():
    new_entry = {
        "protocol": "brand-new-protocol",
        "backend": "batch",
        "n": 64,
        "wall_time_s": 99.0,
    }
    rows, ok = check_smoke_budgets(_canary_report(extra_entries=[new_entry]))
    assert ok  # adding a smoke case must not break the canary
    uncovered = next(
        row for row in rows if row["workload"][0] == "brand-new-protocol"
    )
    assert uncovered["budget_s"] is None and uncovered["ok"]


def test_check_smoke_budgets_fails_on_stale_budget_keys():
    # A budget whose workload vanished from the grid means the canary was
    # quietly disconnected — that must fail loudly, not pass vacuously.
    report = _canary_report()
    report["entries"] = report["entries"][1:]  # drop one budgeted workload
    rows, ok = check_smoke_budgets(report)
    assert not ok
    stale = [row for row in rows if row.get("stale")]
    assert len(stale) == 1 and not stale[0]["ok"]


def test_check_budget_cli_requires_the_smoke_grid():
    with pytest.raises(SystemExit):
        main(["--check-budget", "--quiet"])


def test_check_budget_cli_passes_on_the_real_smoke_grid(tmp_path, capsys):
    output = tmp_path / "BENCH_batch_backend.json"
    exit_code = main(["--smoke", "--check-budget", "--quiet", "--output", str(output)])
    captured = capsys.readouterr()
    assert "perf canary" in captured.out
    assert "REGRESSION" not in captured.out
    assert "STALE" not in captured.out
    assert exit_code == 0
