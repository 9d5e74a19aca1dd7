"""The traced run is stream-transparent: same seed, same results.

Run with ``python3 -m pytest perfbench/tests/check_transparency.py``.  (The
file name keeps it out of the repository's default test collection; it
tests the benchmark, not the program.)  Small versions of the compute
workloads run once plain and once under every wrapper of
``perfbench/tracing.py``; interactions, ``transition_calls`` and the final
output histogram must match exactly, and the wrappers must be gone again
afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compute  # noqa: E402
from repro.engine import samplers  # noqa: E402
from repro.experiments.runner import SweepRunner  # noqa: E402
from repro.server.cache import stable_document  # noqa: E402
from tracing import SpanRecorder, patched  # noqa: E402

SMALL = {
    "approximate-window": compute.ComputeWorkload("approximate", 48, window=20_000),
    "count-exact": compute.ComputeWorkload("count-exact", 32),
    "backup-exact": compute.ComputeWorkload("backup-exact", 400, budget=16 * 400**2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_iteration_reproduces_the_plain_one(name):
    workload = SMALL[name]
    seeds = [11, 12]
    plain = compute.run_iteration(workload, seeds)
    recorder = SpanRecorder()
    traced = compute.traced_iteration(workload, seeds, recorder)
    assert all(run.ok for run in plain.runs + traced.runs)
    assert [run.fingerprint() for run in traced.runs] == [run.fingerprint() for run in plain.runs]
    assert recorder.calls("simulate") == len(seeds)
    assert recorder.calls("convergence.predicate") > 0
    metrics = compute.layer_metrics(recorder, traced, SpanRecorder.wrap_cost_s(1_000))
    assert metrics["backends.events"] > 0
    assert 0.0 <= metrics["counting.delta_key.repeat_ratio"] <= 1.0


def test_delta_key_and_samplers_are_traced_on_the_dense_regime():
    recorder = SpanRecorder()
    compute.traced_iteration(SMALL["count-exact"], [5], recorder)
    assert recorder.calls("counting.delta_key") > 0
    assert recorder.calls("samplers.sample") + recorder.calls("vectorized.next_pair") > 0


def test_wrappers_are_removed_after_the_traced_block():
    before = {cls: dict(cls.__dict__) for cls in samplers.WeightedSampler.__subclasses__()}
    executor = SweepRunner.__dict__["executor"]
    with patched(SpanRecorder(), ((SweepRunner, "executor", "experiments.execute_cell"),)):
        assert SweepRunner.__dict__["executor"] is not executor
    assert SweepRunner.__dict__["executor"] is executor
    for cls, attributes in before.items():
        assert dict(cls.__dict__) == attributes


def test_traced_sweep_executor_keeps_the_artifact():
    from repro.experiments.artifacts import build_document
    from repro.experiments.spec import SweepSpec

    spec = SweepSpec(
        name="transparency", protocol="one-way-epidemic", ns=[40, 48], seeds_per_cell=2,
        base_seed=3, backend="batch",
    )
    plain = build_document(spec, SweepRunner(spec, workers=1).run(), workers=1)
    recorder = SpanRecorder()
    with patched(recorder, ((SweepRunner, "executor", "experiments.execute_cell"),)):
        traced = build_document(spec, SweepRunner(spec, workers=1).run(), workers=1)
    assert stable_document(traced) == stable_document(plain)
    assert len(recorder.durations("experiments.execute_cell")) == len(spec.cells())
