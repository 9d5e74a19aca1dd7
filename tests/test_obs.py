"""Tests of the observability layer (PR 8 tentpole).

Two fronts:

* run tracing — ``extra["telemetry"]`` emitted by both backends as the
  single source of the sampler and memo records, and the determinism
  contract (tracing never touches an RNG stream);
* profile aggregation — the ``--profile`` fold over cells.
"""

import json

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import all_outputs_equal, simulate
from repro.obs.profile import (
    PROVENANCE,
    aggregate_telemetry,
    profile_from_cells,
    render_profile,
    write_profile,
)
from repro.obs.trace import EVENT_LIMIT, TELEMETRY_SCHEMA, RunTracer
from repro.primitives.epidemic import OneWayEpidemic

# --------------------------------------------------------------------------
# RunTracer
# --------------------------------------------------------------------------


def test_run_tracer_accumulates_phases_and_events():
    tracer = RunTracer()
    tracer.add("sampling", 0.25)
    tracer.add("sampling", 0.25, ops=3)
    tracer.add("transition", 0.5)
    tracer.note_event("example", at=10, detail="x")
    assert tracer.phase_seconds("sampling") == pytest.approx(0.5)
    record = tracer.as_dict()
    assert record["schema"] == TELEMETRY_SCHEMA
    assert record["phases"]["sampling"] == {"wall_time_s": 0.5, "ops": 4}
    assert record["phases"]["transition"]["ops"] == 1
    assert record["events"] == [
        {"kind": "example", "at": 10, "detail": "x"}
    ]
    assert "events_dropped" not in record


def test_run_tracer_caps_the_event_log():
    tracer = RunTracer()
    for index in range(EVENT_LIMIT + 5):
        tracer.note_event("spam", at=index)
    assert len(tracer.events) == EVENT_LIMIT
    assert tracer.as_dict()["events_dropped"] == 5


# --------------------------------------------------------------------------
# Engine telemetry: both backends, the shim, and determinism
# --------------------------------------------------------------------------


def test_batch_backend_emits_telemetry_with_consistent_skips():
    result = simulate(
        OneWayEpidemic(),
        64,
        seed=7,
        backend="batch",
        convergence=all_outputs_equal(1),
        max_interactions=50_000,
    )
    telemetry = result.extra["telemetry"]
    assert telemetry["schema"] == TELEMETRY_SCHEMA
    assert telemetry["backend"] == "batch"
    assert {"sampling", "transition"} <= set(telemetry["phases"])
    skips = telemetry["skips"]
    assert skips["interactions"] == result.interactions
    assert (
        skips["applied_events"] + skips["skipped_interactions"]
        == skips["interactions"]
    )
    assert 0.0 <= skips["efficiency"] <= 1.0
    checkpoints = telemetry["checkpoints"]
    assert checkpoints["count"] >= checkpoints["satisfied"] >= 1
    # Telemetry is the single source: no parallel top-level views.
    assert telemetry["sampler"]["regime"] == "pruning"
    assert telemetry["sampler"]["strategy"] == "factorised"
    assert "accel" not in telemetry
    assert telemetry["events"] == []
    memo = telemetry["memo"]
    assert memo["hits"] + memo["misses"] == skips["applied_events"]
    assert "sampler" not in result.extra
    assert "accel" not in result.extra


def test_agent_backend_emits_telemetry_without_batch_sections():
    result = simulate(
        OneWayEpidemic(),
        32,
        seed=3,
        backend="agent",
        convergence=all_outputs_equal(1),
        max_interactions=20_000,
    )
    telemetry = result.extra["telemetry"]
    assert telemetry["backend"] == "agent"
    assert {"sampling", "transition"} <= set(telemetry["phases"])
    assert "skips" not in telemetry
    assert "sampler" not in telemetry
    assert "sampler" not in result.extra


def test_tracing_is_stream_transparent():
    # The determinism contract: identical seeds produce identical
    # trajectories and identical non-timing telemetry.
    results = [
        simulate(
            ExactBackupProtocol(),
            64,
            seed=5,
            backend="batch",
            max_interactions=10_000,
        )
        for _ in range(2)
    ]
    assert results[0].output_counts == results[1].output_counts
    assert results[0].interactions == results[1].interactions
    first, second = (r.extra["telemetry"] for r in results)
    assert first["events"] == second["events"]
    assert first["skips"] == second["skips"]
    assert [p["ops"] for p in first["phases"].values()] == [
        p["ops"] for p in second["phases"].values()
    ]


# --------------------------------------------------------------------------
# Profile aggregation
# --------------------------------------------------------------------------


def _fake_trace(sampling=0.5, ops=10, skips=None, memo=None):
    trace = {
        "schema": 1,
        "backend": "batch",
        "phases": {"sampling": {"wall_time_s": sampling, "ops": ops}},
        "events": [{"kind": "example", "at": 1}],
        "checkpoints": {"count": 4, "satisfied": 1},
    }
    if skips is not None:
        trace["skips"] = skips
    if memo is not None:
        trace["memo"] = memo
    return trace


def test_aggregate_telemetry_folds_phases_events_and_skips():
    skips = {"interactions": 100, "applied_events": 30, "skipped_interactions": 70}
    profile = aggregate_telemetry([_fake_trace(skips=skips), _fake_trace(skips=skips)])
    assert profile["runs"] == 2
    assert profile["backends"] == {"batch": 2}
    assert profile["phases"]["sampling"] == {"wall_time_s": 1.0, "ops": 20}
    assert profile["events"] == {"example": 2}
    assert profile["checkpoints"] == {"count": 8, "satisfied": 2}
    assert profile["skips"]["interactions"] == 200
    assert profile["skips"]["efficiency"] == pytest.approx(0.7)


def test_profile_from_cells_walks_run_extras():
    cells = [
        {"cell_id": "a", "runs": [{"extra": {"telemetry": _fake_trace()}}]},
        {"cell_id": "b", "runs": [{"extra": {}}], "error": "boom"},
    ]
    profile = profile_from_cells(cells)
    assert profile["runs"] == 1
    assert "skips" not in profile


def test_memo_counters_fold_through_aggregation_merging_and_rendering():
    memo = {
        "interned_keys": 5, "released": 3, "pairs": 9, "hits": 30, "misses": 10,
        "coin_nodes": 2,
    }
    traces = [_fake_trace(memo=memo) for _ in range(4)] + [_fake_trace()]
    direct = aggregate_telemetry(traces)
    assert direct["memo"] == {
        "interned_keys": 20, "released": 12, "pairs": 36, "hits": 120, "misses": 40,
        "unrecorded": 0, "switches": 0, "coin_nodes": 8,
    }
    assert "memo" not in aggregate_telemetry([_fake_trace()])
    rendered = render_profile(direct)
    assert "transition memo: 120 hits, 40 misses (hit ratio 0.7500)" in rendered
    assert "20 interned keys (12 released)" in rendered


def test_render_profile_mentions_every_phase_and_the_skip_line():
    skips = {"interactions": 100, "applied_events": 30, "skipped_interactions": 70}
    table = render_profile(aggregate_telemetry([_fake_trace(skips=skips)]), title="t")
    assert "profile: t" in table
    assert "sampling" in table
    assert "geometric skips" in table
    assert "example x1" in table


def test_sweep_document_embeds_the_aggregated_profile(tmp_path):
    from repro.experiments import BudgetPolicy, SweepRunner, SweepSpec
    from repro.experiments import build_document

    spec = SweepSpec(
        name="tiny-obs",
        protocol="one-way-epidemic",
        ns=[8],
        seeds_per_cell=1,
        backend="batch",
        budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
    )
    cells = SweepRunner(spec, workers=1).run()
    document = build_document(spec, cells, workers=1)
    profile = document["telemetry"]
    assert profile["runs"] == 1
    assert profile["backends"] == {"batch": 1}
    assert "sampling" in profile["phases"]
    # The profile artifact is the telemetry stamped with the document's
    # provenance.
    with open(write_profile(document, str(tmp_path)), encoding="utf-8") as handle:
        written = json.load(handle)
    assert {field: written.pop(field) for field in PROVENANCE} == {
        field: document[field] for field in PROVENANCE
    }
    assert written == json.loads(json.dumps(profile))
