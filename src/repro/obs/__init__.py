"""Observability: run tracing and profile aggregation.

Stdlib-only.  Two layers, one per module:

* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.RunTracer`, the
  per-run phase-timing and event log every backend carries; surfaced as
  ``SimulationResult.extra["telemetry"]``.
* :mod:`repro.obs.profile` — aggregation of per-run telemetry into the
  per-phase breakdown behind the ``--profile`` flag and the
  ``PROFILE_<name>.json`` artifacts.

The job server keeps no telemetry of its own beyond this: its counts are
read from ``/healthz``, ``/cache/stats``, ``/jobs/<id>`` and each job's
event log.

The names below load on first use (:mod:`repro.lazy`): a run that only
traces imports :mod:`~repro.obs.trace`, not the aggregator.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "profile": (
        "aggregate_telemetry",
        "profile_from_cells",
        "profile_json_path",
        "render_profile",
        "write_profile",
    ),
    "trace": ("RunTracer",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "RunTracer",
    "aggregate_telemetry",
    "profile_from_cells",
    "profile_json_path",
    "render_profile",
    "write_profile",
]
