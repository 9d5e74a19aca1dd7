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
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..engine.errors import ExperimentError, ReproError
from ..obs.profile import render_profile, write_profile
from .artifacts import (
    build_document,
    build_frontier_document,
    completed_cell_ids,
    load_document,
    merge_cells,
    scenario_json_path,
    write_frontier,
    write_scenario,
)
from .builtin import (
    builtin_scenarios,
    builtin_searches,
    resolve_builtin_scenario,
    resolve_builtin_search,
)
from .faults import FAULTS
from .metrics import INVARIANTS
from .runner import ScenarioRunner
from .search import FrontierRunner, SearchSpec
from .spec import ScenarioSpec

__all__ = ["main", "search_main"]

HEADLINE_BUILTIN = "recount-churn"
SMOKE_BUILTIN = "recount-smoke"
HEADLINE_SEARCH = "epidemic-churn"
SMOKE_SEARCH = "search-smoke"


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
    elif args.smoke:
        spec = resolve_builtin_scenario(SMOKE_BUILTIN)
    else:
        spec = resolve_builtin_scenario(args.builtin)
    if args.seed is not None:
        spec.base_seed = args.seed
    return spec


def _print_listing() -> None:
    print("builtin scenarios:")
    for name, spec in builtin_scenarios().items():
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


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "search":
        return search_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Run dynamic-population chaos scenarios (churn, fault campaigns, "
            "partitions) and measure protocol recovery.  The 'search' "
            "subcommand bisects/evolves a scenario dimension to find the "
            "protocol's breaking point (see: repro-chaos search --help)."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--builtin",
        default=HEADLINE_BUILTIN,
        help=f"builtin scenario to run (default: {HEADLINE_BUILTIN}; see --list)",
    )
    source.add_argument("--spec", help="path of a JSON scenario spec to run")
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
        "--list",
        action="store_true",
        help="list builtin scenarios, fault models, and invariants, then exit",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the existing SCENARIO_*.json artifact",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores; 1 forces serial execution)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for SCENARIO_* artifacts (default: .)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's root seed"
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
            print(resolve_builtin_scenario(args.dump_spec).to_json())
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
            previous = load_document(scenario_json_path(args.output_dir, spec))
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        skip = completed_cell_ids(previous, spec)

    runner = ScenarioRunner(spec, workers=args.workers, progress=progress)
    if progress:
        total = len(spec.cells())
        progress(
            f"scenario {spec.name!r}: protocol={spec.protocol} cells={total} "
            f"seeds/cell={spec.seeds_per_cell} backends={','.join(spec.backends)} "
            f"events={len(spec.events)}"
        )
    fresh = runner.run(skip_cell_ids=skip)
    cells = merge_cells(previous, fresh, spec)
    document = build_document(spec, cells, workers=runner.workers)
    paths = write_scenario(document, args.output_dir, spec)
    elapsed = time.perf_counter() - started

    for backend, fit in (document["fits"].get("recovery_interactions") or {}).items():
        if fit:
            print(
                f"recovery fit [{backend}]: interactions-to-reconverge ~ "
                f"n^{fit['exponent']:.3f} (r^2 {fit['r_squared']:.4f}, "
                f"{fit['points']} sizes)"
            )
    if args.profile:
        print(render_profile(document["telemetry"], title=spec.name))
        print(
            f"wrote {write_profile(document['telemetry'], args.output_dir, spec.name)}"
        )
    print(
        f"wrote {paths['json']} ({len(cells)} cells, {len(fresh)} run now, "
        f"{len(skip)} resumed, {elapsed:.1f}s)"
    )
    failed = document["failed_cells"]
    if failed:
        print(f"FAILED cells: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# repro-chaos search
# --------------------------------------------------------------------------


def _print_search_listing() -> None:
    print("builtin searches:")
    for name, spec in builtin_searches().items():
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


def _load_search_spec(args: argparse.Namespace) -> SearchSpec:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = SearchSpec.from_json(handle.read())
    elif args.smoke:
        spec = resolve_builtin_search(SMOKE_SEARCH)
    else:
        spec = resolve_builtin_search(args.builtin)
    if args.seed is not None:
        spec.base_seed = args.seed
    return spec


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


def search_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos search",
        description=(
            "Find a protocol's breaking point: bisect (or evolve over) a "
            "chaos-scenario dimension until the survival guarantee flips, "
            "and record every probe for exact replay."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--builtin",
        default=HEADLINE_SEARCH,
        help=f"builtin search to run (default: {HEADLINE_SEARCH}; see --list)",
    )
    source.add_argument("--spec", help="path of a JSON search spec to run")
    source.add_argument(
        "--smoke",
        action="store_true",
        help=f"run the bounded CI frontier (builtin {SMOKE_SEARCH!r})",
    )
    source.add_argument(
        "--dump-spec",
        metavar="NAME",
        help="print a builtin search as JSON (a starting point for --spec) and exit",
    )
    parser.add_argument(
        "--list", action="store_true", help="list builtin searches, then exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores; 1 forces serial execution)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for FRONTIER_* artifacts (default: .)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's root seed"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-phase time breakdown aggregated over all probes "
            "and write PROFILE_<name>.json"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-probe progress output"
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_search_listing()
        return 0
    if args.dump_spec:
        try:
            print(resolve_builtin_search(args.dump_spec).to_json())
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    try:
        spec = _load_search_spec(args)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    progress = None if args.quiet else lambda line: print(line, flush=True)
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
    paths = write_frontier(document, args.output_dir, spec)
    elapsed = time.perf_counter() - started

    print(_summarise_result(spec, result))
    if args.profile:
        print(render_profile(document["telemetry"], title=spec.name))
        print(
            f"wrote {write_profile(document['telemetry'], args.output_dir, spec.name)}"
        )
    print(
        f"wrote {paths['json']} ({len(runner.history)} probes, {elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
