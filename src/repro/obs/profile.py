"""Aggregate per-run telemetry into per-phase profiles (``--profile``).

Every run record carries ``extra["telemetry"]`` (see
:mod:`repro.obs.trace`); a sweep/scenario cell carries a list of such
runs.  This module folds those runs into one profile document::

    {
      "schema": 1,
      "runs": 12,
      "backends": {"batch": 12},
      "phases": {"sampling": {"wall_time_s": ..., "ops": ...}, ...},
      "events": {},
      "skips": {"interactions": ..., "applied_events": ...,
                "skipped_interactions": ..., "efficiency": ...},
      "memo": {"interned_keys": ..., "released": ..., "pairs": ...,
               "hits": ..., "misses": ..., "unrecorded": ...,
               "switches": ..., "coin_nodes": ...},
      "checkpoints": {"count": ..., "satisfied": ...}
    }

rendered by :func:`render_profile` as the breakdown table the batch CLIs
print under ``--profile`` and written as ``PROFILE_<name>.json`` next to
the other artifacts, stamped like them with the ``name``,
``code_fingerprint`` and ``spec_sha256`` of the document it summarises.
Timing fields keep the volatile ``wall_time_s`` name, so embedded profiles
never break artifact-stability comparisons.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "aggregate_telemetry",
    "iter_run_telemetry",
    "profile_from_cells",
    "profile_json_path",
    "render_profile",
    "write_profile",
]


#: Summed counters of the batch backend's ``skips`` and ``memo`` records.
SKIP_COUNTERS = ("interactions", "applied_events", "skipped_interactions")
MEMO_COUNTERS = (
    "interned_keys", "released", "pairs", "hits", "misses", "unrecorded", "switches",
    "coin_nodes",
)


def _add_counters(totals: Dict[str, int], record: Any) -> bool:
    """Add a record's ``totals`` counters in; whether there was a record."""
    if not isinstance(record, dict):
        return False
    for key in totals:
        totals[key] += int(record.get(key) or 0)
    return True


def iter_run_telemetry(cells: Iterable[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    """Yield every run-level telemetry dict found in a list of cell records."""
    for cell in cells:
        if not isinstance(cell, dict):
            continue
        for run in cell.get("runs") or []:
            if not isinstance(run, dict):
                continue
            telemetry = (run.get("extra") or {}).get("telemetry")
            if isinstance(telemetry, dict):
                yield telemetry


def aggregate_telemetry(traces: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold run-level telemetry dicts into one profile document."""
    runs = 0
    backends: Dict[str, int] = {}
    phase_s: Dict[str, float] = {}
    phase_ops: Dict[str, int] = {}
    events: Dict[str, int] = {}
    skips = dict.fromkeys(SKIP_COUNTERS, 0)
    memo = dict.fromkeys(MEMO_COUNTERS, 0)
    saw_skips = saw_memo = False
    checkpoints = {"count": 0, "satisfied": 0}
    for telemetry in traces:
        runs += 1
        backend = telemetry.get("backend")
        if backend:
            backends[backend] = backends.get(backend, 0) + 1
        for name, phase in (telemetry.get("phases") or {}).items():
            phase_s[name] = phase_s.get(name, 0.0) + float(
                phase.get("wall_time_s") or 0.0
            )
            phase_ops[name] = phase_ops.get(name, 0) + int(phase.get("ops") or 0)
        for event in telemetry.get("events") or []:
            kind = event.get("kind", "unknown")
            events[kind] = events.get(kind, 0) + 1
        saw_skips |= _add_counters(skips, telemetry.get("skips"))
        saw_memo |= _add_counters(memo, telemetry.get("memo"))
        _add_counters(checkpoints, telemetry.get("checkpoints"))
    profile: Dict[str, Any] = {
        "schema": 1,
        "runs": runs,
        "backends": backends,
        "phases": {
            name: {"wall_time_s": round(phase_s[name], 9), "ops": phase_ops[name]}
            for name in sorted(phase_s)
        },
        "events": events,
        "checkpoints": checkpoints,
    }
    if saw_skips:
        interactions = skips["interactions"]
        profile["skips"] = {
            **skips,
            "efficiency": (
                round(skips["skipped_interactions"] / interactions, 6)
                if interactions
                else 0.0
            ),
        }
    if saw_memo:
        profile["memo"] = memo
    return profile


def profile_from_cells(cells: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Profile document aggregated over every run in a list of cell records."""
    return aggregate_telemetry(iter_run_telemetry(cells))


def render_profile(profile: Dict[str, Any], title: Optional[str] = None) -> str:
    """The per-phase breakdown table printed under ``--profile``."""
    lines: List[str] = []
    if title:
        lines.append(f"profile: {title}")
    runs = profile.get("runs", 0)
    backends = profile.get("backends") or {}
    backend_note = (
        ", ".join(f"{count}x {name}" for name, count in sorted(backends.items()))
        or "none"
    )
    lines.append(f"runs traced: {runs} ({backend_note})")
    phases = profile.get("phases") or {}
    total = sum(float(p.get("wall_time_s") or 0.0) for p in phases.values())
    header = f"{'phase':<14} {'wall_time_s':>12} {'share':>7} {'ops':>12} {'s/op':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(phases, key=lambda n: -float(phases[n].get("wall_time_s") or 0)):
        seconds = float(phases[name].get("wall_time_s") or 0.0)
        ops = int(phases[name].get("ops") or 0)
        share = f"{100.0 * seconds / total:6.1f}%" if total else "    n/a"
        per_op = f"{seconds / ops:10.2e}" if ops else f"{'n/a':>10}"
        lines.append(f"{name:<14} {seconds:>12.6f} {share} {ops:>12} {per_op}")
    lines.append("-" * len(header))
    lines.append(f"{'total traced':<14} {total:>12.6f} {'100.0%' if total else '   n/a':>7}")
    skips = profile.get("skips")
    if skips:
        lines.append(
            f"geometric skips: {skips['skipped_interactions']} of "
            f"{skips['interactions']} interactions skipped "
            f"(efficiency {skips['efficiency']:.4f}, "
            f"{skips['applied_events']} applied events)"
        )
    memo = profile.get("memo")
    if memo:
        lookups = memo["hits"] + memo["misses"] + memo["unrecorded"]
        lines.append(
            f"transition memo: {memo['hits']} hits, {memo['misses']} misses "
            f"(hit ratio {memo['hits'] / lookups if lookups else 0.0:.4f}), "
            f"{memo['unrecorded']} unrecorded ({memo['switches']} mode switches), "
            f"{memo['pairs']} pairs, {memo['coin_nodes']} coin nodes, "
            f"{memo['interned_keys']} interned keys ({memo['released']} released)"
        )
    checkpoints = profile.get("checkpoints") or {}
    if checkpoints.get("count"):
        lines.append(
            f"checkpoints: {checkpoints['count']} evaluated, "
            f"{checkpoints['satisfied']} satisfied"
        )
    events = profile.get("events") or {}
    if events:
        lines.append(
            "events: "
            + ", ".join(f"{kind} x{count}" for kind, count in sorted(events.items()))
        )
    return "\n".join(lines)


def profile_json_path(output_dir: str, name: str) -> str:
    """Path of the profile artifact for a named sweep or scenario run."""
    return os.path.join(output_dir, f"PROFILE_{name}.json")


#: The fields of a sweep or scenario document a profile artifact carries.
PROVENANCE = ("name", "code_fingerprint", "spec_sha256")


def write_profile(document: Dict[str, Any], output_dir: str) -> str:
    """Write a document's ``telemetry`` as ``PROFILE_<name>.json``; returns the path.

    The profile is stamped with the document's :data:`PROVENANCE` fields.
    """
    profile = {field: document[field] for field in PROVENANCE}
    profile.update(document["telemetry"])
    os.makedirs(output_dir, exist_ok=True)
    path = profile_json_path(output_dir, document["name"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
