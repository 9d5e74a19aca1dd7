"""Backend benchmark harness (``repro-bench``).

Times the per-agent and batched simulation backends across protocols and
population sizes, checks the headline perf target (a >= 50x reduction in
Python-level transition calls on the epidemic protocol at ``n = 10**5``),
and writes ``BENCH_batch_backend.json`` so the perf trajectory is tracked
across PRs.
"""

from .runner import (
    BenchCase,
    BenchEntry,
    default_cases,
    run_benchmark,
    smoke_cases,
)

__all__ = [
    "BenchCase",
    "BenchEntry",
    "default_cases",
    "run_benchmark",
    "smoke_cases",
]
