"""``repro-bench`` console entry point.

Compares the per-agent and batched backends and writes a JSON report
(``BENCH_batch_backend.json`` by default) *exactly at* ``--output``
(parent directories are created; nothing is implicitly dropped into the
CWD, so CI matrix legs writing to per-leg paths cannot clobber each other).

With ``--check-budget`` (smoke grid only) the smoke wall times are
compared against the generous per-workload budgets committed in
:data:`repro.bench.runner.SMOKE_BUDGETS_S`; the table is printed either way
and the run fails on gross (> 5x budget) regressions — the CI perf canary.

Usage::

    repro-bench                 # full grid, n up to 10**6 on the batch backend
    repro-bench --smoke         # < 30 s grid for CI pushes
    repro-bench --smoke --check-budget
    repro-bench --output reports/bench.json --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..obs.profile import render_profile
from .runner import (
    BUDGET_FAIL_FACTOR,
    check_smoke_budgets,
    run_benchmark,
    write_report,
)

__all__ = ["main"]

DEFAULT_OUTPUT = "BENCH_batch_backend.json"


def _print_budget_table(rows) -> None:
    print("perf canary (fail above {:g}x budget):".format(BUDGET_FAIL_FACTOR))
    for row in rows:
        protocol, backend, n = row["workload"]
        wall = f"{row['wall_time_s']:7.3f}s" if row["wall_time_s"] is not None else "   (not run)"
        budget = f"{row['budget_s']:.1f}s" if row["budget_s"] is not None else "(none)"
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "  -  "
        verdict = "ok" if row["ok"] else ("STALE BUDGET" if row.get("stale") else "REGRESSION")
        print(
            f"  {protocol:32s} {backend:6s} n={n:<7d} "
            f"wall={wall} budget={budget:>7s} {ratio:>7s} {verdict}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the per-agent and batched simulation backends.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the quick (< 30 s) grid used on CI pushes",
    )
    parser.add_argument(
        "--check-budget",
        action="store_true",
        help=(
            "compare smoke wall times against the committed per-workload "
            "budgets and fail on gross regressions (smoke grid only)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            f"path of the JSON report (default: {DEFAULT_OUTPUT}); parent "
            "directories are created"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-phase time breakdown aggregated from the runs' "
            "telemetry (embedded in the report as 'profile')"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress output"
    )
    args = parser.parse_args(argv)
    if args.check_budget and not args.smoke:
        # Budgets are committed for the smoke grid only: on the full grid
        # the canary would match nothing and pass vacuously.
        parser.error("--check-budget applies to the --smoke grid only")

    progress = None if args.quiet else lambda line: print(line, flush=True)
    started = time.perf_counter()
    output = args.output or DEFAULT_OUTPUT
    report = run_benchmark(smoke=args.smoke, base_seed=args.seed, progress=progress)
    elapsed = time.perf_counter() - started
    write_report(report, output)

    if args.profile:
        profile = report.get("profile")
        if profile:
            print(render_profile(profile, title="bench"))
        else:
            print("(no run telemetry in this grid)")

    # The smoke grid has no headline-size case, so the headline check only
    # bites on the full grid; the budget canary (smoke only) stacks its own
    # failure on top.
    headline = report["headline"]
    if headline is not None:
        verdict = "OK" if report["headline_met"] else "BELOW TARGET"
        print(
            f"headline: {headline['protocol']} n={headline['n']} "
            f"transition-call reduction {headline['transition_call_reduction']}x "
            f"(target {report['target_reduction']}x) [{verdict}]"
        )
    print(f"wrote {output} ({len(report['entries'])} entries, {elapsed:.1f}s)")
    status = 1 if report["headline_met"] is False else 0
    if args.check_budget:
        rows, budgets_ok = check_smoke_budgets(report)
        _print_budget_table(rows)
        if not budgets_ok:
            print("perf canary FAILED: gross wall-time regression", file=sys.stderr)
            return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
