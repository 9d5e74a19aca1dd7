"""Parallel experiment-sweep subsystem.

This package turns the single-run simulator into a *measurement instrument*
for the paper's scaling claims: a declarative, JSON round-trippable
:class:`~repro.experiments.spec.SweepSpec` describes a grid over population
sizes, protocol parameters, and seeds; :class:`~repro.experiments.runner.SweepRunner`
fans the cells out across cores with spawn-safe ``multiprocessing`` workers;
the aggregation layer reduces each cell to convergence/parallel-time/state
statistics and fits log-log scaling exponents across ``n``; and the sweep
is written as ``SWEEP_<name>.json`` (:mod:`repro.kinds`) plus a CSV table.  The
``repro-sweep`` console script (:mod:`repro.experiments.cli`) exposes all of
it, including builtin sweeps reproducing the paper's counting curves.

The names below load on first use (:mod:`repro.lazy`): resolving a protocol
through :mod:`~repro.experiments.registry` imports neither the runner (and
its ``multiprocessing``) nor the artifact writers.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "aggregate": ("cell_stats", "fit_power_law", "sample_stats", "sweep_fits"),
    "artifacts": ("build_document", "write_csv"),
    "builtin": ("builtin_specs",),
    "registry": ("PROTOCOLS", "ProtocolEntry", "protocol_names", "resolve_protocol"),
    "runner": ("SweepRunner", "execute_cell"),
    "spec": ("BudgetPolicy", "SweepCell", "SweepSpec"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BudgetPolicy",
    "PROTOCOLS",
    "ProtocolEntry",
    "SweepCell",
    "SweepRunner",
    "SweepSpec",
    "build_document",
    "builtin_specs",
    "cell_stats",
    "execute_cell",
    "fit_power_law",
    "protocol_names",
    "resolve_protocol",
    "sample_stats",
    "sweep_fits",
    "write_csv",
]
