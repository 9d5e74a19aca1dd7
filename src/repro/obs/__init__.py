"""Observability: run tracing, metrics, and profile aggregation.

Stdlib-only.  Three layers, one per module:

* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.RunTracer`, the
  per-run phase-timing and event log every backend carries; surfaced as
  ``SimulationResult.extra["telemetry"]``.
* :mod:`repro.obs.metrics` — process-level counters / gauges /
  histograms with a Prometheus text-exposition renderer, served by
  ``repro-serve`` at ``GET /metrics``.
* :mod:`repro.obs.profile` — aggregation of per-run telemetry into the
  per-phase breakdown behind the ``--profile`` flag and the
  ``PROFILE_<name>.json`` artifacts.

The names below load on first use (:mod:`repro.lazy`): a run that only
traces imports :mod:`~repro.obs.trace`, not the registry or the aggregator.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "parse_exposition"),
    "profile": (
        "aggregate_telemetry",
        "merge_profiles",
        "profile_from_cells",
        "profile_json_path",
        "render_profile",
        "write_profile",
    ),
    "trace": ("RunTracer",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTracer",
    "aggregate_telemetry",
    "merge_profiles",
    "parse_exposition",
    "profile_from_cells",
    "profile_json_path",
    "render_profile",
    "write_profile",
]
