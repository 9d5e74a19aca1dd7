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

The options every spec kind shares come from :mod:`repro.spec_cli`; this
module adds the listing, ``--plot`` and the CSV table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from ..kinds import KINDS
from ..spec_cli import Progress, run_command, run_grid
from .artifacts import write_csv
from .plot import render_sweep_plot, write_png_plot
from .registry import PROTOCOLS
from .spec import SweepSpec

__all__ = ["main"]

SWEEP = KINDS["sweep"]


def _print_listing() -> None:
    print("builtin sweeps:")
    for name, spec in SWEEP.builtin_specs().items():
        grid = "x".join(str(n) for n in spec.ns)
        print(f"  {name:18s} {spec.protocol:20s} n={grid}  seeds={spec.seeds_per_cell}")
        if spec.description:
            print(f"  {'':18s} {spec.description}")
    print("registered protocols:")
    for name, entry in PROTOCOLS.items():
        tag = "counting" if entry.counting else "baseline"
        print(f"  {name:20s} [{tag}] {entry.summary}")


def _add_plot(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plot",
        action="store_true",
        help=(
            "render an ASCII log-log plot of the fitted scaling curve "
            f"(and write {SWEEP.prefix}<name>.png when matplotlib is available)"
        ),
    )


def _run(
    spec: SweepSpec,
    args: argparse.Namespace,
    progress: Progress,
    previous: Optional[Dict[str, Any]],
) -> int:
    def report(document: Dict[str, Any]) -> List[str]:
        csv_path = SWEEP.path(args.output_dir, spec.name, ".csv")
        write_csv(document, csv_path)
        fit = (document["fits"] or {}).get("convergence_interactions")
        if fit:
            print(
                f"scaling fit: convergence interactions ~ n^{fit['exponent']:.3f} "
                f"(r^2 {fit['r_squared']:.4f}, {fit['points']} sizes)"
            )
        if args.plot:
            print(render_sweep_plot(document))
            written = write_png_plot(document, SWEEP.path(args.output_dir, spec.name, ".png"))
            if written:
                print(f"wrote {written}")
            else:
                print("(matplotlib not available; skipped the PNG plot)")
        return [csv_path]

    header = (
        f"sweep {spec.name!r}: protocol={spec.protocol} cells={len(spec.cells())} "
        f"seeds/cell={spec.seeds_per_cell} backend={spec.backend}"
    )
    return run_grid(spec, args, progress, previous, header, report)


def main(argv: Optional[List[str]] = None) -> int:
    return run_command(
        "sweep",
        argv,
        prog="repro-sweep",
        description="Run experiment sweeps over population sizes and seeds.",
        list_help="list builtin sweeps and protocols, then exit",
        listing=_print_listing,
        run=_run,
        extra_arguments=_add_plot,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
