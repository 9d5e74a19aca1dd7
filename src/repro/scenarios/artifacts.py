"""Scenario and frontier artifacts.

``SCENARIO_<name>.json`` is the durable record of a chaos campaign: the full
spec (re-runnable from the artifact alone), every cell's run records —
including the engine's per-segment recovery accounting, the event timeline
with invariant measurements, and the post-churn accuracy — plus per-backend
recovery-scaling fits.  ``--resume`` support reuses the sweep layer's
grid-merge logic (:func:`completed_cell_ids` / :func:`merge_cells` are
duck-typed over ``spec.cells()``), so interrupted chaos grids pick up where
they stopped.

``FRONTIER_<name>.json`` is the durable record of an adversarial search
(:mod:`repro.scenarios.search`): the search spec, the strategy's result
(critical value, bracket, orientation), and the complete probe history —
every probe's mutated values, derived seeds, and survived/broken counts —
so any probe replays exactly via :func:`~repro.scenarios.search.probe_scenario`.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..engine.errors import ExperimentError
from ..fingerprint import code_fingerprint, spec_sha256
from ..obs.profile import merge_profiles, profile_from_cells
from ..resume import completed_cell_ids as _completed_cell_ids
from ..resume import merge_cells as _merge_cells
from ..resume import write_report
from .metrics import scenario_fits
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from .search import SearchSpec

__all__ = [
    "scenario_json_path",
    "build_document",
    "write_scenario",
    "load_document",
    "completed_cell_ids",
    "merge_cells",
    "frontier_json_path",
    "build_frontier_document",
    "write_frontier",
    "load_frontier_document",
]


def scenario_json_path(output_dir: str, spec: ScenarioSpec) -> str:
    """Path of the scenario's JSON artifact."""
    return os.path.join(output_dir, f"SCENARIO_{spec.name}.json")


def completed_cell_ids(document: Optional[Dict[str, Any]], spec: ScenarioSpec):
    """Cell ids from a previous scenario artifact that ``--resume`` may skip.

    Delegates to the shared grid-resume helper of :mod:`repro.resume`,
    which is duck-typed over ``spec.cells()`` (one implementation for
    sweeps, scenarios, and the server's result cache).
    """
    return _completed_cell_ids(document, spec)


def merge_cells(
    document: Optional[Dict[str, Any]],
    fresh: List[Dict[str, Any]],
    spec: ScenarioSpec,
) -> List[Dict[str, Any]]:
    """Combine resumed scenario cells with freshly run ones.

    Shared-helper semantics (:func:`repro.resume.merge_cells`): fresh wins,
    except a fresh failed record never replaces a previous successful one.
    """
    return _merge_cells(document, fresh, spec)


def build_document(
    spec: ScenarioSpec,
    cells: List[Dict[str, Any]],
    workers: int,
) -> Dict[str, Any]:
    """Assemble the JSON artifact document for a completed scenario."""
    failed = [cell["cell_id"] for cell in cells if cell.get("error")]
    spec_dict = spec.to_dict()
    return {
        "artifact": "scenario",
        "name": spec.name,
        "generated_unix": int(time.time()),
        "workers": workers,
        "code_fingerprint": code_fingerprint(),
        "spec_sha256": spec_sha256(spec_dict),
        "spec": spec_dict,
        "fits": scenario_fits([cell for cell in cells if not cell.get("error")]),
        "telemetry": profile_from_cells(cells),
        "failed_cells": failed,
        "cells": cells,
    }


def write_scenario(
    document: Dict[str, Any],
    output_dir: str,
    spec: ScenarioSpec,
) -> Dict[str, str]:
    """Write the JSON artifact; return its path."""
    os.makedirs(output_dir, exist_ok=True)
    json_path = scenario_json_path(output_dir, spec)
    write_report(document, json_path)
    return {"json": json_path}


def load_document(path: str) -> Optional[Dict[str, Any]]:
    """Load a previous scenario artifact, or ``None`` when absent."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(
            f"cannot read scenario artifact {path}: {error}"
        ) from None
    if not isinstance(document, dict) or document.get("artifact") != "scenario":
        raise ExperimentError(f"{path} is not a scenario artifact")
    return document


# --------------------------------------------------------------------------
# Frontier (adversarial search) artifacts
# --------------------------------------------------------------------------


def frontier_json_path(output_dir: str, spec: "SearchSpec") -> str:
    """Path of a search's JSON artifact."""
    return os.path.join(output_dir, f"FRONTIER_{spec.name}.json")


def build_frontier_document(
    spec: "SearchSpec",
    result: Dict[str, Any],
    history: List[Dict[str, Any]],
    workers: int,
) -> Dict[str, Any]:
    """Assemble the JSON artifact document for a completed search."""
    spec_dict = spec.to_dict()
    return {
        "artifact": "frontier",
        "name": spec.name,
        "generated_unix": int(time.time()),
        "workers": workers,
        "strategy": spec.strategy,
        "status": result.get("status"),
        "code_fingerprint": code_fingerprint(),
        "spec_sha256": spec_sha256(spec_dict),
        "spec": spec_dict,
        "result": result,
        "telemetry": merge_profiles(
            entry.get("telemetry") or {} for entry in history
        ),
        "history": history,
    }


def write_frontier(
    document: Dict[str, Any],
    output_dir: str,
    spec: "SearchSpec",
) -> Dict[str, str]:
    """Write the frontier JSON artifact; return its path."""
    os.makedirs(output_dir, exist_ok=True)
    json_path = frontier_json_path(output_dir, spec)
    write_report(document, json_path)
    return {"json": json_path}


def load_frontier_document(path: str) -> Optional[Dict[str, Any]]:
    """Load a previous frontier artifact, or ``None`` when absent."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(
            f"cannot read frontier artifact {path}: {error}"
        ) from None
    if not isinstance(document, dict) or document.get("artifact") != "frontier":
        raise ExperimentError(f"{path} is not a frontier artifact")
    return document
