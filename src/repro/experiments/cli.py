"""``repro-sweep`` console entry point.

Runs an experiment sweep (a builtin or a JSON spec), fans cells out across
worker processes, and writes ``SWEEP_<name>.json`` + ``SWEEP_<name>.csv``.

Usage::

    repro-sweep --list                      # enumerate builtin sweeps
    repro-sweep                             # run the headline counting curve
    repro-sweep --builtin theorem-1         # run another builtin
    repro-sweep --smoke                     # bounded CI grid
    repro-sweep --spec my_sweep.json        # run a custom spec
    repro-sweep --dump-spec theorem-1       # print a builtin as JSON
    repro-sweep --resume                    # skip cells already in the artifact
    repro-sweep --workers 4 --seed 7 --output-dir results/
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..engine.errors import ReproError
from ..obs.profile import render_profile, write_profile
from .artifacts import (
    build_document,
    completed_cell_ids,
    load_document,
    merge_cells,
    sweep_json_path,
    write_sweep,
)
from .builtin import builtin_specs, resolve_builtin
from .plot import render_sweep_plot, write_png_plot
from .registry import PROTOCOLS
from .runner import SweepRunner
from .spec import SweepSpec

__all__ = ["main"]

HEADLINE_BUILTIN = "counting-curve"
SMOKE_BUILTIN = "counting-smoke"


def _load_spec(args: argparse.Namespace) -> SweepSpec:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = SweepSpec.from_json(handle.read())
    elif args.smoke:
        spec = resolve_builtin(SMOKE_BUILTIN)
    else:
        spec = resolve_builtin(args.builtin)
    if args.seed is not None:
        spec.base_seed = args.seed
    return spec


def _print_listing() -> None:
    print("builtin sweeps:")
    for name, spec in builtin_specs().items():
        grid = "x".join(str(n) for n in spec.ns)
        print(f"  {name:18s} {spec.protocol:20s} n={grid}  seeds={spec.seeds_per_cell}")
        if spec.description:
            print(f"  {'':18s} {spec.description}")
    print("registered protocols:")
    for name, entry in PROTOCOLS.items():
        tag = "counting" if entry.counting else "baseline"
        print(f"  {name:20s} [{tag}] {entry.summary}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run experiment sweeps over population sizes and seeds.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--builtin",
        default=HEADLINE_BUILTIN,
        help=f"builtin sweep to run (default: {HEADLINE_BUILTIN}; see --list)",
    )
    source.add_argument("--spec", help="path of a JSON sweep spec to run")
    source.add_argument(
        "--smoke",
        action="store_true",
        help=f"run the bounded CI grid (builtin {SMOKE_BUILTIN!r})",
    )
    source.add_argument(
        "--dump-spec",
        metavar="NAME",
        help="print a builtin spec as JSON (a starting point for --spec) and exit",
    )
    parser.add_argument(
        "--list", action="store_true", help="list builtin sweeps and protocols, then exit"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the existing SWEEP_*.json artifact",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores; 1 forces serial execution)",
    )
    parser.add_argument(
        "--output-dir", default=".", help="directory for SWEEP_* artifacts (default: .)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's root seed"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help=(
            "render an ASCII log-log plot of the fitted scaling curve "
            "(and write SWEEP_<name>.png when matplotlib is available)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-phase time breakdown aggregated from run "
            "telemetry and write PROFILE_<name>.json"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress output"
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_listing()
        return 0
    if args.dump_spec:
        try:
            print(resolve_builtin(args.dump_spec).to_json())
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    try:
        spec = _load_spec(args)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    progress = None if args.quiet else lambda line: print(line, flush=True)
    started = time.perf_counter()

    previous = None
    skip: set = set()
    if args.resume:
        try:
            previous = load_document(sweep_json_path(args.output_dir, spec))
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        skip = completed_cell_ids(previous, spec)

    runner = SweepRunner(spec, workers=args.workers, progress=progress)
    if progress:
        total = len(spec.cells())
        progress(
            f"sweep {spec.name!r}: protocol={spec.protocol} cells={total} "
            f"seeds/cell={spec.seeds_per_cell} backend={spec.backend}"
        )
    fresh = runner.run(skip_cell_ids=skip)
    cells = merge_cells(previous, fresh, spec)
    document = build_document(spec, cells, workers=runner.workers)
    paths = write_sweep(document, args.output_dir, spec)
    elapsed = time.perf_counter() - started

    fit = (document["fits"] or {}).get("convergence_interactions")
    if fit:
        print(
            f"scaling fit: convergence interactions ~ n^{fit['exponent']:.3f} "
            f"(r^2 {fit['r_squared']:.4f}, {fit['points']} sizes)"
        )
    if args.plot:
        print(render_sweep_plot(document))
        png_path = os.path.join(args.output_dir, f"SWEEP_{spec.name}.png")
        written = write_png_plot(document, png_path)
        if written:
            print(f"wrote {written}")
        else:
            print("(matplotlib not available; skipped the PNG plot)")
    if args.profile:
        print(render_profile(document["telemetry"], title=spec.name))
        print(f"wrote {write_profile(document['telemetry'], args.output_dir, spec.name)}")
    failed = document["failed_cells"]
    print(
        f"wrote {paths['json']} and {paths['csv']} "
        f"({len(cells)} cells, {len(fresh)} run now, {len(skip)} resumed, "
        f"{elapsed:.1f}s)"
    )
    if failed:
        print(f"FAILED cells: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
