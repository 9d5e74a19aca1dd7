"""``repro-chaos`` console entry point.

Runs a chaos scenario (a builtin or a JSON spec), fans cells out across
worker processes, and writes ``SCENARIO_<name>.json``.

Usage::

    repro-chaos --list                      # enumerate builtin scenarios
    repro-chaos                             # run the headline recount-churn
    repro-chaos --builtin stable-detect     # run another builtin
    repro-chaos --smoke                     # bounded CI grid
    repro-chaos --spec my_scenario.json     # run a custom spec
    repro-chaos --resume                    # skip cells already in the artifact
    repro-chaos --dump-spec recount-churn   # print a builtin as JSON
    repro-chaos --workers 4 --seed 7 --output-dir results/

The options every spec kind shares come from :mod:`repro.spec_cli`; this
module adds the listing and the per-backend recovery-fit lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from ..kinds import KINDS
from ..spec_cli import Progress, run_command, run_grid
from .faults import FAULTS
from .metrics import INVARIANTS
from .spec import ScenarioSpec

__all__ = ["main"]


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
    return run_command(
        "scenario",
        argv,
        prog="repro-chaos",
        description=(
            "Run dynamic-population chaos scenarios (churn and fault "
            "campaigns) and measure protocol recovery."
        ),
        list_help="list builtin scenarios, fault models, and invariants, then exit",
        listing=_print_listing,
        run=_run,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
