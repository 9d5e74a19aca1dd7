"""The command line every spec kind shares.

``repro-sweep`` and ``repro-chaos`` take a spec from
``--builtin``/``--spec``/``--smoke`` (``--dump-spec`` prints a builtin,
``--list`` lists them), run it on ``--workers`` processes with an optional
``--seed``, and write ``<prefix><name>.json`` to ``--output-dir``, or
``--resume`` from that artifact.  :func:`run_command` builds that
parser and front matter from the kind's entry in :data:`~repro.kinds.KINDS`,
and :func:`run_grid` runs, merges and writes a grid spec.  Each CLI module
keeps only its listing and its own tail.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .engine.errors import ReproError
from .kinds import KINDS, SpecKind, build_document, kind_of
from .obs.profile import render_profile, write_profile
from .resume import completed_cell_ids, merge_cells, write_report

__all__ = ["run_command", "run_grid"]

Progress = Optional[Callable[[str], None]]
Document = Dict[str, Any]


def _load_spec(kind: SpecKind, args: argparse.Namespace) -> Any:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = kind.spec_class().from_json(handle.read())
    else:
        spec = kind.resolve_builtin(kind.smoke if args.smoke else args.builtin)
    if args.seed is not None:
        spec.base_seed = args.seed
    return spec


def run_command(
    kind_name: str,
    argv: Optional[List[str]],
    *,
    prog: str,
    description: str,
    list_help: str,
    listing: Callable[[], None],
    run: Callable[[Any, argparse.Namespace, Progress, Optional[Document]], int],
    extra_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None,
) -> int:
    """Parse ``argv`` for one kind's CLI and hand the loaded spec to ``run``.

    ``--list`` calls ``listing``; bad names, spec files and artifacts exit
    2.  ``run(spec, args, progress, previous)`` gets the previous artifact
    under ``--resume`` (else ``None``) and returns the exit status;
    ``extra_arguments`` adds the CLI's own options after ``--seed``.
    """
    kind = KINDS[kind_name]
    parser = argparse.ArgumentParser(prog=prog, description=description)
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--builtin",
        default=kind.headline,
        help=f"builtin {kind.kind} to run (default: {kind.headline}; see --list)",
    )
    source.add_argument("--spec", help=f"path of a JSON {kind.kind} spec to run")
    source.add_argument(
        "--smoke",
        action="store_true",
        help=f"run the bounded CI grid (builtin {kind.smoke!r})",
    )
    source.add_argument(
        "--dump-spec",
        metavar="NAME",
        help="print a builtin spec as JSON (a starting point for --spec) and exit",
    )
    parser.add_argument("--list", action="store_true", help=list_help)
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"skip cells already completed in the existing {kind.prefix}*.json artifact",
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
        help=f"directory for {kind.prefix}* artifacts (default: .)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's root seed"
    )
    if extra_arguments is not None:
        extra_arguments(parser)
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-phase time breakdown aggregated from run "
            "telemetry and write PROFILE_<name>.json"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress output",
    )
    args = parser.parse_args(argv)

    if args.list:
        listing()
        return 0
    try:
        if args.dump_spec:
            print(kind.resolve_builtin(args.dump_spec).to_json())
            return 0
        spec = _load_spec(kind, args)
        previous = None
        if args.resume:
            previous = kind.load_document(kind.path(args.output_dir, spec.name))
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    return run(spec, args, progress, previous)


def run_grid(
    spec: Any,
    args: argparse.Namespace,
    progress: Progress,
    previous: Optional[Document],
    header: str,
    report: Callable[[Document], List[str]],
) -> int:
    """Run a grid spec's pending cells, write its artifact, summarise.

    Cells complete in ``previous`` are skipped and merged back in.
    ``report(document)`` prints the kind's own lines and returns the paths
    of any further files it wrote.  Under ``--profile`` it also prints the
    phase breakdown and writes ``PROFILE_<name>.json``.  Exits 1 when a
    cell failed.
    """
    kind = kind_of(spec)
    started = time.perf_counter()
    skip = completed_cell_ids(previous, spec)
    runner = kind.runner_class()(spec, workers=args.workers, progress=progress)
    if progress:
        progress(header)
    fresh = runner.run(skip_cell_ids=skip)
    cells = merge_cells(previous, fresh, spec)
    document = build_document(spec, cells, workers=runner.workers)
    paths = [kind.path(args.output_dir, spec.name)]
    write_report(document, paths[0])
    paths += report(document)
    elapsed = time.perf_counter() - started
    if args.profile:
        print(render_profile(document["telemetry"], title=spec.name))
        print(f"wrote {write_profile(document, args.output_dir)}")
    print(
        f"wrote {' and '.join(paths)} ({len(cells)} cells, {len(fresh)} run now, "
        f"{len(skip)} resumed, {elapsed:.1f}s)"
    )
    failed = document["failed_cells"]
    if failed:
        print(f"FAILED cells: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
