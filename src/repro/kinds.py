"""The spec kinds — sweeps and scenarios — in one table.

A *kind* is one way of describing an experiment: a
:class:`~repro.experiments.spec.SweepSpec` (scaling curves, ``repro-sweep``)
or a :class:`~repro.scenarios.spec.ScenarioSpec` (churn and fault campaigns,
``repro-chaos``).  :data:`KINDS` holds every fact the CLIs and the job
server need about each: its artifact name and file prefix, its spec class,
its builtins with their headline and smoke names, its runner (whose
``executor`` is the cell executor a worker runs) and its fits function.
Code is named by ``"module:attribute"`` references and imported on first
use, so this module loads no kind's code: a ``repro-worker`` that has
leased nothing has imported no simulator.

The one document builder (:func:`build_document`) and the one loader
(:meth:`SpecKind.load_document`) live here too;
:func:`repro.resume.write_report` writes every document.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional

from .engine.errors import ConfigurationError, ExperimentError
from .fingerprint import code_fingerprint, spec_sha256
from .obs.profile import profile_from_cells

__all__ = [
    "KINDS",
    "SpecKind",
    "build_document",
    "executor",
    "kind_of",
]


def _load(ref: str) -> Any:
    module, _, name = ref.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class SpecKind:
    """Where one spec kind's code lives and how its artifact is named.

    A kind's cells lease under its own name, and ``fits`` names the function
    that fits its completed cells.
    """

    kind: str
    artifact: str
    prefix: str
    spec: str
    builtins: str
    headline: str
    smoke: str
    runner: str
    fits: str

    def spec_class(self) -> Any:
        return _load(self.spec)

    def runner_class(self) -> Any:
        return _load(self.runner)

    def builtin_specs(self) -> Dict[str, Any]:
        """The builtin specs by name, headline first (fresh instances)."""
        return _load(self.builtins)()

    def resolve_builtin(self, name: str) -> Any:
        specs = self.builtin_specs()
        try:
            return specs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown builtin {self.kind} {name!r}; available: {', '.join(specs)}"
            ) from None

    def path(self, output_dir: str, name: str, suffix: str = ".json") -> str:
        """``<output_dir>/<prefix><name><suffix>``: where an artifact goes."""
        return os.path.join(output_dir, f"{self.prefix}{name}{suffix}")

    def load_document(self, path: str) -> Optional[Dict[str, Any]]:
        """Load a previous artifact of this kind, or ``None`` when absent.

        A file that exists but cannot be parsed, or holds another kind's
        artifact, raises :class:`~repro.engine.errors.ExperimentError`
        rather than being silently overwritten.
        """
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ExperimentError(
                f"cannot read {self.artifact} artifact {path}: {error}"
            ) from None
        if not isinstance(document, dict) or document.get("artifact") != self.artifact:
            raise ExperimentError(f"{path} is not a {self.artifact} artifact")
        return document


#: The spec kinds by name (the job kinds of ``POST /jobs``).
KINDS: Dict[str, SpecKind] = {
    kind.kind: kind
    for kind in (
        SpecKind(
            kind="sweep",
            artifact="sweep",
            prefix="SWEEP_",
            spec="repro.experiments.spec:SweepSpec",
            builtins="repro.experiments.builtin:builtin_specs",
            headline="counting-curve",
            smoke="counting-smoke",
            runner="repro.experiments.runner:SweepRunner",
            fits="repro.experiments.aggregate:sweep_fits",
        ),
        SpecKind(
            kind="scenario",
            artifact="scenario",
            prefix="SCENARIO_",
            spec="repro.scenarios.spec:ScenarioSpec",
            builtins="repro.scenarios.builtin:builtin_scenarios",
            headline="recount-churn",
            smoke="recount-smoke",
            runner="repro.scenarios.runner:ScenarioRunner",
            fits="repro.scenarios.metrics:scenario_fits",
        ),
    )
}


def kind_of(spec: Any) -> SpecKind:
    """The kind ``spec`` is an instance of."""
    for kind in KINDS.values():
        if isinstance(spec, kind.spec_class()):
            return kind
    raise ConfigurationError(f"{type(spec).__name__} is not a spec of any kind")


def executor(kind: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """The cell executor behind a lease ``kind``.

    Read from the kind's runner on every call (imported on the first), so
    the pool, the CLI and ``repro-worker`` run the same entry point.
    """
    return KINDS[kind].runner_class().executor


def build_document(spec: Any, cells: List[Dict[str, Any]], workers: int) -> Dict[str, Any]:
    """Assemble the JSON artifact of a completed sweep or scenario grid."""
    kind = kind_of(spec)
    spec_dict = spec.to_dict()
    return {
        "artifact": kind.artifact,
        "name": spec.name,
        "generated_unix": int(time.time()),
        "workers": workers,
        "code_fingerprint": code_fingerprint(),
        "spec_sha256": spec_sha256(spec_dict),
        "spec": spec_dict,
        "fits": _load(kind.fits)([cell for cell in cells if not cell.get("error")]),
        "telemetry": profile_from_cells(cells),
        "failed_cells": [cell["cell_id"] for cell in cells if cell.get("error")],
        "cells": cells,
    }

