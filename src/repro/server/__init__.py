"""Simulation-as-a-service: an async job server over the experiment engine.

The batch CLIs (``repro-sweep``, ``repro-chaos``, ``repro-chaos search``)
run one spec per process.  This package turns the same machinery into a
long-lived HTTP service: ``repro-serve`` accepts any of the three spec
kinds as JSON jobs, deduplicates identical cells across jobs through a
content-addressed result cache, and serves the finished
``SWEEP_``/``SCENARIO_``/``FRONTIER_`` documents back over HTTP.

Cells have one way to run.  A cache miss is put on a leased work queue
(TTL + heartbeat + a per-cell deadline, at-least-once with
first-result-wins dedup), and ``repro-worker`` processes pull it over the
same HTTP API — the N that ``repro-serve --workers N`` spawns against its
own URL, and any number attached from other hosts.  The result cache can
persist to a ``--cache-dir`` of ``<key>.json`` files so a restarted server
still serves identical resubmissions from disk.

Layers (stdlib only — no new required dependencies):

* :mod:`repro.server.cache` — :class:`ResultCache`, keyed on the canonical
  cell payload JSON (which embeds the derived seeds) plus the code
  fingerprint, optionally persistent on disk (atomic writes, quarantine
  for corrupt entries, LRU bytes budget), and :func:`stable_document` for
  artifact comparison.
* :mod:`repro.server.work` — :class:`WorkQueue`, the lease table one
  running batch exposes to workers.
* :mod:`repro.server.jobs` — :class:`JobManager`: FIFO queue, the
  cache-then-lease step every cell takes, cancellation, per-cell progress.
  What a job kind's spec, cells, runner and document are comes from
  :data:`repro.kinds.KINDS`, imported on first use.
* :mod:`repro.server.app` — the ``http.server`` JSON API, including the
  ``/work`` pull-protocol routes.
* :mod:`repro.server.client` — :class:`ReproClient`, a thin stdlib HTTP
  client for tests, scripts, workers, and the CI smoke.
* :mod:`repro.server.cli` — the ``repro-serve`` console entry point, which
  spawns and supervises its local workers.
* :mod:`repro.server.worker` — the ``repro-worker`` console entry point
  (lease → execute → push loop; a kind's executor is imported on its first
  lease, :func:`repro.kinds.executor`) and :class:`~repro.server.worker.
  WorkerProcess`, the one way to start a worker subprocess.

The names below load on first use (:mod:`repro.lazy`).
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "cache": ("ResultCache", "cache_key", "stable_document"),
    "client": ("ReproClient", "ServerError"),
    "jobs": ("JobManager", "JobNotReady", "UnknownJob"),
    "work": ("WorkQueue",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "JobManager",
    "JobNotReady",
    "ReproClient",
    "ResultCache",
    "ServerError",
    "UnknownJob",
    "WorkQueue",
    "cache_key",
    "stable_document",
]
