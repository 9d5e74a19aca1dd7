"""Sweep artifacts: the CSV table beside ``SWEEP_<name>.json``.

The JSON artifact is built by :func:`repro.kinds.build_document` (re-exported
here) and written by :func:`repro.resume.write_report`; the CSV table is a
flat per-cell view of it for spreadsheet/plotting workflows.
"""

from __future__ import annotations

import csv
from typing import Any, Dict

from ..kinds import build_document

__all__ = ["build_document", "write_csv"]


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


def write_csv(document: Dict[str, Any], path: str) -> None:
    """Write the per-cell CSV table of a sweep document to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for cell in document["cells"]:
            writer.writerow(_csv_row(cell))
