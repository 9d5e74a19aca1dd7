"""Shared completed-cell accounting for resumable grids and result caches.

Three subsystems reuse previously computed cell records: ``repro-sweep
--resume``, ``repro-chaos --resume``, and the server's content-addressed
:class:`~repro.server.cache.ResultCache`.  They all need the same two
decisions made identically:

* *Is a previous record still trustworthy for this spec?* —
  :func:`cell_is_complete` (same grid cell, same derived seeds, every run
  present, no error) plus the document-level code-fingerprint gate of
  :func:`completed_cell_ids` (results from a different code version are
  stale by definition).
* *Which record wins when both a previous and a fresh one exist?* —
  :func:`merge_cells`.  Fresh records win, with one exception: a fresh
  *failed* record never overwrites a previous *successful, complete* one —
  a transient worker crash on a re-run must not destroy good data.

The helpers are duck-typed over ``spec.cells()`` (any object whose cells
expose ``cell_id`` and ``seeds``), which is how one implementation serves
sweeps, scenarios, and the server's job kinds alike.  Both CLIs call them
from one place, :func:`repro.spec_cli.run_grid`, after
:meth:`repro.kinds.SpecKind.load_document` has read the previous artifact;
no kind wraps them.

:func:`write_report` writes every kind's artifact (:data:`repro.kinds.KINDS`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

from .fingerprint import code_fingerprint

__all__ = ["cell_is_complete", "completed_cell_ids", "merge_cells", "write_report"]


def cell_is_complete(record: Optional[Dict[str, Any]], expected_cell: Any) -> bool:
    """Whether ``record`` fully covers ``expected_cell`` and succeeded.

    Complete means: same cell id, no error, the same derived seeds as the
    spec currently prescribes (so raising ``seeds_per_cell`` or reseeding
    invalidates the record, as it must), and one run per seed.
    """
    if not record or record.get("error"):
        return False
    if record.get("cell_id") != expected_cell.cell_id:
        return False
    if list(record.get("seeds", ())) != list(expected_cell.seeds):
        return False
    return len(record.get("runs", ())) == len(expected_cell.seeds)


def _stale_document(document: Dict[str, Any]) -> bool:
    """A document stamped by a *different* code version is stale.

    Documents predating the fingerprint stamp carry no field and are
    accepted (their cells still match on id + seeds); once stamped, only an
    exact fingerprint match may feed ``--resume`` or the result cache.
    """
    stamp = document.get("code_fingerprint")
    return stamp is not None and stamp != code_fingerprint()


def completed_cell_ids(document: Optional[Dict[str, Any]], spec: Any) -> Set[str]:
    """Cell ids from a previous artifact that a resume may skip."""
    if not document or _stale_document(document):
        return set()
    by_id = {cell.cell_id: cell for cell in spec.cells()}
    done: Set[str] = set()
    for record in document.get("cells", ()):
        expected = by_id.get(record.get("cell_id"))
        if expected is not None and cell_is_complete(record, expected):
            done.add(record["cell_id"])
    return done


def merge_cells(
    document: Optional[Dict[str, Any]],
    fresh: List[Dict[str, Any]],
    spec: Any,
) -> List[Dict[str, Any]]:
    """Combine resumed cells from ``document`` with freshly run ones.

    The merged list follows the spec's grid order and drops stale cells no
    longer in the grid.  Fresh records win on conflicts — except that a
    fresh *failed* record never replaces a previous record that is complete
    and successful for the same cell: re-running a finished cell (e.g.
    after a spec round-trip, or a worker lost mid-retry) must not downgrade
    the artifact.
    """
    if document is not None and _stale_document(document):
        document = None
    fresh_by_id = {record["cell_id"]: record for record in fresh}
    previous_by_id = {
        record["cell_id"]: record for record in (document or {}).get("cells", ())
    }
    merged: List[Dict[str, Any]] = []
    for cell in spec.cells():
        fresh_record = fresh_by_id.get(cell.cell_id)
        previous_record = previous_by_id.get(cell.cell_id)
        record = fresh_record if fresh_record is not None else previous_record
        if (
            fresh_record is not None
            and fresh_record.get("error")
            and cell_is_complete(previous_record, cell)
        ):
            record = previous_record
        if record is not None:
            merged.append(record)
    return merged


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as indented JSON, creating parent directories.

    Reports land exactly at ``path`` (never the CWD), so CI matrix legs can
    write to disjoint per-leg paths without clobbering each other.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
