"""``repro-chaos`` console entry point.

Runs a chaos scenario (a builtin or a JSON spec), fans cells out across
worker processes, and writes ``SCENARIO_<name>.json``; the ``search``
subcommand runs an adversarial frontier search and writes
``FRONTIER_<name>.json``.

Usage::

    repro-chaos --list                      # enumerate builtin scenarios
    repro-chaos                             # run the headline recount-churn
    repro-chaos --builtin epidemic-rejoin   # run another builtin
    repro-chaos --smoke                     # bounded CI grid
    repro-chaos --spec my_scenario.json     # run a custom spec
    repro-chaos --resume                    # skip cells already in the artifact
    repro-chaos --dump-spec recount-churn   # print a builtin as JSON
    repro-chaos --workers 4 --seed 7 --output-dir results/

    repro-chaos search --list               # enumerate builtin searches
    repro-chaos search                      # run the headline epidemic-churn
    repro-chaos search --builtin backup-recount
    repro-chaos search --smoke              # bounded CI frontier
    repro-chaos search --spec my_search.json
    repro-chaos search --dump-spec epidemic-churn

The options every spec kind shares come from :mod:`repro.spec_cli`; this
module adds the listings, the per-backend recovery-fit lines and the
search's result summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from ..engine.errors import ExperimentError
from ..kinds import KINDS, build_frontier_document
from ..resume import write_report
from ..spec_cli import Progress, print_profile, run_command, run_grid
from .faults import FAULTS
from .metrics import INVARIANTS
from .search import FrontierRunner, SearchSpec
from .spec import ScenarioSpec

__all__ = ["main", "search_main"]


def _print_listing() -> None:
    print("builtin scenarios:")
    for name, spec in KINDS["scenario"].builtin_specs().items():
        grid = "x".join(str(n) for n in spec.ns)
        backends = ",".join(spec.backends)
        print(
            f"  {name:20s} {spec.protocol:24s} n={grid}  backends={backends}  "
            f"events={len(spec.events)}"
        )
        if spec.description:
            print(f"  {'':20s} {spec.description}")
    print("fault models:")
    for name, model in FAULTS.items():
        print(f"  {name:20s} {model.summary}")
    print("invariants:")
    for name, invariant in INVARIANTS.items():
        print(f"  {name:20s} {invariant.summary}")


def _run(
    spec: ScenarioSpec,
    args: argparse.Namespace,
    progress: Progress,
    previous: Optional[Dict[str, Any]],
) -> int:
    def report(document: Dict[str, Any]) -> List[str]:
        fits = document["fits"].get("recovery_interactions") or {}
        for backend, fit in fits.items():
            if fit:
                print(
                    f"recovery fit [{backend}]: interactions-to-reconverge ~ "
                    f"n^{fit['exponent']:.3f} (r^2 {fit['r_squared']:.4f}, "
                    f"{fit['points']} sizes)"
                )
        return []

    header = (
        f"scenario {spec.name!r}: protocol={spec.protocol} cells={len(spec.cells())} "
        f"seeds/cell={spec.seeds_per_cell} backends={','.join(spec.backends)} "
        f"events={len(spec.events)}"
    )
    return run_grid(spec, args, progress, previous, header, report)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "search":
        return search_main(argv[1:])
    return run_command(
        "scenario",
        argv,
        prog="repro-chaos",
        description=(
            "Run dynamic-population chaos scenarios (churn, fault campaigns, "
            "partitions) and measure protocol recovery.  The 'search' "
            "subcommand bisects/evolves a scenario dimension to find the "
            "protocol's breaking point (see: repro-chaos search --help)."
        ),
        list_help="list builtin scenarios, fault models, and invariants, then exit",
        listing=_print_listing,
        run=_run,
    )


# --------------------------------------------------------------------------
# repro-chaos search
# --------------------------------------------------------------------------


def _print_search_listing() -> None:
    print("builtin searches:")
    for name, spec in KINDS["search"].builtin_specs().items():
        dims = ",".join(
            f"{spec.scenario.events[dim.event].kind}.{dim.dimension}"
            f"[{dim.low:g},{dim.high:g}]"
            for dim in spec.dimensions
        )
        print(
            f"  {name:20s} {spec.scenario.protocol:24s} "
            f"strategy={spec.strategy}  dims={dims}"
        )
        if spec.description:
            print(f"  {'':20s} {spec.description}")


def _summarise_result(spec: SearchSpec, result: dict) -> str:
    status = result.get("status")
    labels = [
        f"{spec.scenario.events[dim.event].kind}.{dim.dimension}"
        for dim in spec.dimensions
    ]

    def point(values: object) -> str:
        if not isinstance(values, (list, tuple)):
            return str(values)
        return ", ".join(
            f"{label}={value:g}" for label, value in zip(labels, values)
        )

    if status in ("bracketed", "budget-exhausted"):
        suffix = " [probe budget exhausted]" if status == "budget-exhausted" else ""
        return (
            f"frontier ({result['orientation']}): critical "
            f"{point([result['critical']])} "
            f"(bracket [{result['bracket'][0]:g}, {result['bracket'][1]:g}], "
            f"tolerance {spec.tolerance:g}){suffix}"
        )
    if status == "frontier-point":
        return (
            f"mildest breaking point: {point(result['critical'])} "
            f"(severity {result['critical_severity']:.3f})"
        )
    if status == "no-frontier":
        return f"no frontier in the search box ({result.get('outcome')})"
    return f"status: {status}"


def _run_search(
    spec: SearchSpec,
    args: argparse.Namespace,
    progress: Progress,
    previous: Optional[Dict[str, Any]],
) -> int:
    started = time.perf_counter()
    runner = FrontierRunner(spec, workers=args.workers, progress=progress)
    if progress:
        progress(
            f"search {spec.name!r}: protocol={spec.scenario.protocol} "
            f"strategy={spec.strategy} dims={len(spec.dimensions)} "
            f"seeds/probe={spec.seeds_per_probe} "
            f"guarantee={spec.guarantee.kind}"
        )
    try:
        result = runner.run()
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    document = build_frontier_document(
        spec, result, runner.history, workers=runner.workers
    )
    path = KINDS["search"].path(args.output_dir, spec.name)
    write_report(document, path)
    elapsed = time.perf_counter() - started

    print(_summarise_result(spec, result))
    print_profile(document, args, spec.name)
    print(f"wrote {path} ({len(runner.history)} probes, {elapsed:.1f}s)")
    return 0


def search_main(argv: Optional[List[str]] = None) -> int:
    return run_command(
        "search",
        argv,
        prog="repro-chaos search",
        description=(
            "Find a protocol's breaking point: bisect (or evolve over) a "
            "chaos-scenario dimension until the survival guarantee flips, "
            "and record every probe for exact replay."
        ),
        list_help="list builtin searches, then exit",
        listing=_print_search_listing,
        run=_run_search,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
