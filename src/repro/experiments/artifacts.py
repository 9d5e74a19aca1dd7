"""Sweep artifacts: ``SWEEP_<name>.json`` documents and CSV tables.

The JSON artifact is the durable record of a sweep: it embeds the full spec
(so the sweep is re-runnable from the artifact alone), every cell's run
summaries and statistics, and the fitted scaling exponents.  ``--resume``
reads the previous artifact, treats cells whose every seeded repetition
completed without error as done, and merges them with the freshly run cells.

The CSV table is a flat per-cell view for spreadsheet/plotting workflows.
"""

from __future__ import annotations

import csv
import json
import os
import time
from typing import Any, Dict, List, Optional, Set

from ..engine.errors import ExperimentError
from ..fingerprint import code_fingerprint, spec_sha256
from ..obs.profile import profile_from_cells
from ..resume import completed_cell_ids as _completed_cell_ids
from ..resume import merge_cells as _merge_cells
from ..resume import write_report
from .aggregate import sweep_fits
from .spec import SweepSpec

__all__ = [
    "sweep_json_path",
    "sweep_csv_path",
    "build_document",
    "write_sweep",
    "load_document",
    "completed_cell_ids",
    "merge_cells",
]


def sweep_json_path(output_dir: str, spec: SweepSpec) -> str:
    """Path of the sweep's JSON artifact."""
    return os.path.join(output_dir, f"SWEEP_{spec.name}.json")


def sweep_csv_path(output_dir: str, spec: SweepSpec) -> str:
    """Path of the sweep's CSV table."""
    return os.path.join(output_dir, f"SWEEP_{spec.name}.csv")


def build_document(
    spec: SweepSpec,
    cells: List[Dict[str, Any]],
    workers: int,
) -> Dict[str, Any]:
    """Assemble the JSON artifact document for a completed sweep."""
    failed = [cell["cell_id"] for cell in cells if cell.get("error")]
    spec_dict = spec.to_dict()
    return {
        "artifact": "sweep",
        "name": spec.name,
        "generated_unix": int(time.time()),
        "workers": workers,
        "code_fingerprint": code_fingerprint(),
        "spec_sha256": spec_sha256(spec_dict),
        "spec": spec_dict,
        "fits": sweep_fits([cell for cell in cells if not cell.get("error")]),
        "telemetry": profile_from_cells(cells),
        "failed_cells": failed,
        "cells": cells,
    }


def load_document(path: str) -> Optional[Dict[str, Any]]:
    """Load a previous artifact, or ``None`` when absent.

    A file that exists but cannot be parsed raises
    :class:`~repro.engine.errors.ExperimentError` rather than being silently
    overwritten — resuming over a corrupt artifact is a user decision.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot read sweep artifact {path}: {error}") from None
    if not isinstance(document, dict) or document.get("artifact") != "sweep":
        raise ExperimentError(f"{path} is not a sweep artifact")
    return document


def completed_cell_ids(document: Optional[Dict[str, Any]], spec: SweepSpec) -> Set[str]:
    """Cell ids from a previous artifact that ``--resume`` may skip.

    Delegates to the shared grid-resume helper of :mod:`repro.resume`: a
    cell counts as complete when it belongs to the same spec grid, carries
    no error, and ran every one of its currently-specified seeds — and a
    document stamped by a different code version resumes nothing.
    """
    return _completed_cell_ids(document, spec)


def merge_cells(
    document: Optional[Dict[str, Any]],
    fresh: List[Dict[str, Any]],
    spec: SweepSpec,
) -> List[Dict[str, Any]]:
    """Combine resumed cells from ``document`` with freshly run ones.

    Shared-helper semantics (:func:`repro.resume.merge_cells`): fresh wins,
    except a fresh *failed* record never replaces a previous successful and
    complete one; the merged list follows the spec's grid order.
    """
    return _merge_cells(document, fresh, spec)


_CSV_COLUMNS = [
    "cell_id",
    "n",
    "runs",
    "converged_runs",
    "convergence_rate",
    "convergence_interactions_mean",
    "convergence_interactions_median",
    "convergence_interactions_p90",
    "parallel_time_mean",
    "distinct_states_mean",
    "wall_time_s_mean",
    "error",
]


def _csv_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    stats = cell.get("stats") or {}

    def stat(name: str, key: str) -> Any:
        summary = stats.get(name) or {}
        return summary.get(key, "")

    return {
        "cell_id": cell["cell_id"],
        "n": cell["n"],
        "runs": stats.get("runs", 0),
        "converged_runs": stats.get("converged_runs", 0),
        "convergence_rate": stats.get("convergence_rate", ""),
        "convergence_interactions_mean": stat("convergence_interactions", "mean"),
        "convergence_interactions_median": stat("convergence_interactions", "median"),
        "convergence_interactions_p90": stat("convergence_interactions", "p90"),
        "parallel_time_mean": stat("parallel_time", "mean"),
        "distinct_states_mean": stat("distinct_states", "mean"),
        "wall_time_s_mean": stat("wall_time_s", "mean"),
        "error": (cell.get("error") or "").strip().splitlines()[-1] if cell.get("error") else "",
    }


def write_sweep(
    document: Dict[str, Any],
    output_dir: str,
    spec: SweepSpec,
) -> Dict[str, str]:
    """Write the JSON artifact and CSV table; return their paths."""
    os.makedirs(output_dir, exist_ok=True)
    json_path = sweep_json_path(output_dir, spec)
    write_report(document, json_path)
    csv_path = sweep_csv_path(output_dir, spec)
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for cell in document["cells"]:
            writer.writerow(_csv_row(cell))
    return {"json": json_path, "csv": csv_path}
