"""Tests for the dynamic-population chaos subsystem.

Covers the engine-layer dynamics (churn on both backends, timeline
segments, recovery accounting, wall-time budgets), the scenario package
(spec round-trips, event expansion, fault models, invariants, the runner),
and the agent/batch equivalence of reconvergence-time distributions after
identical churn (KS-style, mirroring the static-population equivalence
tests).
"""

import json
import os
import random
from collections import Counter

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import (
    ConfigurationError,
    Simulator,
    TimelineEvent,
    all_outputs_equal,
    accuracy_fraction,
    outputs_within_spread,
    simulate,
)
from repro.engine.metrics import InteractionCounter
from repro.experiments.plot import ascii_loglog, render_sweep_plot, sweep_plot_points
from repro.experiments.registry import resolve_protocol
from repro.experiments.runner import SweepRunner, execute_cell
from repro.experiments.spec import BudgetPolicy, SweepSpec
from repro.primitives.epidemic import OneWayEpidemic
from repro.kinds import KINDS, build_document
from repro.primitives.load_balancing import ClassicalLoadBalancing
from repro.resume import completed_cell_ids, merge_cells
from repro.scenarios import (
    EventSpec,
    ScenarioRunner,
    ScenarioSpec,
    builtin_scenarios,
    execute_scenario_cell,
    expand_events,
    resolve_fault,
    resolve_invariant,
)


# --------------------------------------------------------------------------
# Engine layer: dynamic populations
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "backend, protocol",
    [
        ("agent", "one-way-epidemic"),
        ("batch", "one-way-epidemic"),  # the batch backend's pruning regime
        ("agent", "approximate"),
        ("batch", "approximate"),  # the batch backend's dense regime
    ],
    ids=["agent", "batch", "agent-approximate", "batch-approximate"],
)
def test_join_leave_replace_bookkeeping(backend, protocol):
    model = resolve_protocol(protocol).build(16, {})
    simulator = Simulator(model, 16, seed=1, backend=backend)
    simulator.backend.advance_to(50)
    rng = random.Random(7)
    simulator.backend.join(8)  # agent ids 16..23
    assert simulator.n == 24
    assert sum(simulator.state_key_counts().values()) == 24
    # Joiners get late agent ids, i.e. a late agent's initial state.
    late = model.state_key(model.initial_state(16))
    assert simulator.state_key_counts()[late] >= 8
    simulator.backend.leave(10, rng)
    assert simulator.n == 14
    assert sum(simulator.state_key_counts().values()) == 14
    # A full crash-rejoin keeps n, though the population is empty between
    # its leave and its join; so does one that spares a single agent.
    simulator.backend.replace(13, rng)  # agent ids 24..36
    assert simulator.n == 14
    simulator.backend.replace(14, rng)  # agent ids 37..50
    assert simulator.n == 14
    counts = simulator.state_key_counts()
    assert sum(counts.values()) == 14
    # After replacing everyone, only fresh agents remain.
    fresh = Counter(model.state_key(model.initial_state(i)) for i in range(37, 51))
    assert counts == fresh
    simulator.backend.advance_to(simulator.interactions + 50)
    assert sum(simulator.state_key_counts().values()) == 14


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_leave_refuses_to_empty_population(backend):
    simulator = Simulator(OneWayEpidemic(), 4, seed=0, backend=backend)
    with pytest.raises(ConfigurationError):
        simulator.backend.leave(3, random.Random(0))


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_restart_population_recounts_at_new_size(backend):
    # The acceptance shape of the headline scenario, in miniature: exact
    # counting converges, 25% of the agents leave with their tokens, the
    # survivors restart, and the protocol re-counts the *new* n exactly.
    def churn(sim):
        details = sim.backend.leave(16, random.Random(3))
        details.update(sim.backend.restart_population())
        return details

    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=5,
        backend=backend,
        max_interactions=120_000,
        convergence_factory=lambda sim: all_outputs_equal(sim.n),
        timeline=[TimelineEvent(at=40_000, kind="leave", apply=churn)],
        check_interval=64,
    )
    assert result.n == 48
    assert result.converged
    assert result.consensus_output == 48
    assert result.extra["initial_n"] == 64
    event = result.extra["timeline"][0]
    assert event["fired"] and event["n_after"] == 48
    assert event["reconverged"]
    assert event["recovery_interactions"] > 0
    segments = result.extra["segments"]
    assert [seg["n"] for seg in segments] == [64, 48]
    assert segments[0]["converged"]  # counted 64 before the churn


def test_counter_swap_removal():
    counter = InteractionCounter(3)
    counter.record(0, 2)
    counter.record(1, 2)
    counter.remove_agent(0)  # agent 2's counts move into slot 0
    assert counter.per_agent == [2, 1]
    counter.add_agent()
    assert counter.per_agent == [2, 1, 0]
    assert counter.min_participation == 0


def test_timeline_events_beyond_budget_are_reported_unfired():
    result = simulate(
        OneWayEpidemic(),
        8,
        seed=0,
        max_interactions=100,
        timeline=[
            TimelineEvent(at=50, kind="join", apply=lambda sim: sim.backend.join(2)),
            TimelineEvent(at=500, kind="join", apply=lambda sim: sim.backend.join(2)),
        ],
    )
    fired = {record["at"]: record["fired"] for record in result.extra["timeline"]}
    assert fired == {50: True, 500: False}
    assert result.n == 10


def test_batch_terminal_configuration_skips_to_next_event():
    # The epidemic completes and the batch backend proves terminality; the
    # frozen window up to the join event is skipped exactly, and the joiners
    # re-activate the chain.
    result = simulate(
        OneWayEpidemic(),
        16,
        seed=2,
        backend="batch",
        max_interactions=50_000,
        convergence=all_outputs_equal(1),
        stop_when_converged=False,
        timeline=[
            TimelineEvent(at=20_000, kind="join", apply=lambda sim: sim.backend.join(8))
        ],
        check_interval=16,
    )
    assert result.n == 24
    assert result.stopped_reason == "terminal"
    assert result.converged  # the epidemic re-closed over the joiners
    assert result.output_counts == Counter({1: 24})


def test_early_stop_waits_for_final_segment():
    # The predicate holds long before the event, but the run must keep going
    # into the scheduled disturbance instead of stopping early.
    result = simulate(
        OneWayEpidemic(source_count=8),
        8,
        seed=0,
        max_interactions=2_000,
        convergence=all_outputs_equal(1),
        check_interval=10,
        confirm_checks=1,
        timeline=[
            TimelineEvent(at=1_000, kind="join", apply=lambda sim: sim.backend.join(4))
        ],
    )
    assert result.extra["timeline"][0]["fired"]
    assert result.n == 12
    assert result.interactions > 1_000


def test_convergence_and_factory_are_mutually_exclusive():
    simulator = Simulator(OneWayEpidemic(), 8, seed=0)
    with pytest.raises(ConfigurationError):
        simulator.run(
            max_interactions=10,
            convergence=all_outputs_equal(1),
            convergence_factory=lambda sim: all_outputs_equal(1),
        )


def test_wall_time_budget_stops_run():
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=0,
        max_interactions=10**9,
        max_wall_time_s=0.05,
        check_interval=256,
        convergence=all_outputs_equal(10**9),  # unsatisfiable
    )
    assert result.stopped_reason == "wall-time"
    assert result.extra["wall_time_exceeded"]


# --------------------------------------------------------------------------
# Agent/batch equivalence under churn (KS-style)
# --------------------------------------------------------------------------


from repro.engine.stats import ks_statistic as _ks_statistic  # noqa: E402  (shared statistical harness)


@pytest.mark.stats
def test_reconvergence_time_distributions_match_across_backends():
    # Identical churn (16 uninformed joiners at t=600) on both backends; the
    # recovery-time distributions after the event must be compatible.
    n = 32
    samples = 40

    def recovery(backend, seed):
        result = simulate(
            OneWayEpidemic(),
            n,
            seed=seed,
            backend=backend,
            convergence=all_outputs_equal(1),
            check_interval=1,
            confirm_checks=1,
            max_interactions=10_000,
            timeline=[
                TimelineEvent(
                    at=600, kind="join", apply=lambda sim: sim.backend.join(16)
                )
            ],
        )
        assert result.converged and result.n == 48
        return result.extra["segments"][-1]["recovery_interactions"]

    agent_times = [recovery("agent", seed) for seed in range(samples)]
    batch_times = [recovery("batch", 1000 + seed) for seed in range(samples)]
    statistic = _ks_statistic(agent_times, batch_times)
    # Critical value at alpha = 0.01 for 40-vs-40 samples is ~0.364.
    assert statistic < 0.364, (statistic, agent_times, batch_times)


# --------------------------------------------------------------------------
# Fault models and invariants
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_reset_fault_uninforms_agents(backend):
    simulator = Simulator(OneWayEpidemic(source_count=16), 16, seed=0, backend=backend)
    details = resolve_fault("reset").apply(simulator, 4, random.Random(2))
    assert details["victims"] == 4
    assert simulator.output_counts() == Counter({1: 12, 0: 4})


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_clone_fault_breaks_token_conservation(backend):
    simulator = Simulator(ClassicalLoadBalancing([64]), 8, seed=1, backend=backend)
    token_sum = resolve_invariant("token-sum")
    before = token_sum.compute(simulator.protocol, simulator.state_key_counts())
    assert before == 64
    rng = random.Random(0)
    for _ in range(20):  # clone until a duplication actually lands
        resolve_fault("clone").apply(simulator, 2, rng)
        after = token_sum.compute(simulator.protocol, simulator.state_key_counts())
        if after != before:
            break
    assert after != before


def test_invariant_registry_errors():
    with pytest.raises(ConfigurationError):
        resolve_invariant("no-such-invariant")
    with pytest.raises(ConfigurationError):
        resolve_invariant("token-sum").compute(OneWayEpidemic(), Counter({0: 4}))


def test_accuracy_fraction_counts_value_wise():
    assert accuracy_fraction(Counter({5: 9, 4: 1}), all_outputs_equal(5)) == 0.9
    assert accuracy_fraction([1, 1, 2, 3], all_outputs_equal(1)) == 0.5
    # Whole-population predicates are vacuous on singletons; the metric must
    # refuse them instead of reporting a fabricated 1.0.
    assert accuracy_fraction(Counter({0: 99, 1000: 1}), outputs_within_spread(1)) is None


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_fault_changed_counts_actual_key_changes(backend):
    # Resetting the whole untouched population only changes the one source
    # agent's key — both backends must report the same `changed` accounting.
    simulator = Simulator(OneWayEpidemic(source_count=1), 8, seed=0, backend=backend)
    details = resolve_fault("reset").apply(simulator, 8, random.Random(1))
    assert details["changed"] == 1


# --------------------------------------------------------------------------
# Scenario specs, expansion, runner
# --------------------------------------------------------------------------


def _tiny_spec(**overrides):
    base = dict(
        name="tiny",
        protocol="backup-exact",
        ns=[16],
        seeds_per_cell=1,
        backends=["agent", "batch"],
        budget=BudgetPolicy(factor=24.0, n_exponent=2.0, log_exponent=0.0),
        events=[
            EventSpec(
                kind="leave",
                at=BudgetPolicy(factor=8.0, n_exponent=2.0, log_exponent=0.0),
                fraction=0.25,
                restart=True,
            )
        ],
        invariants=["population", "token-sum"],
        max_checks=200,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_scenario_spec_round_trips_through_json():
    spec = _tiny_spec(param_grid={"churn": [0.1, 0.2]})
    clone = ScenarioSpec.from_json(spec.to_json())
    assert clone == spec
    assert [cell.cell_id for cell in clone.cells()] == [
        cell.cell_id for cell in spec.cells()
    ]


def test_scenario_cells_cover_grid_backends_and_param_grid():
    spec = _tiny_spec(ns=[16, 32], param_grid={"churn": [0.1, 0.2]})
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 2  # params x ns x backends
    ids = {cell.cell_id for cell in cells}
    assert "backup-exact-churn=0.1-n16-agent" in ids
    assert all(len(cell.seeds) == 1 for cell in cells)


def test_event_spec_validation():
    with pytest.raises(ConfigurationError):
        EventSpec(kind="shrink", at_interactions=5)
    with pytest.raises(ConfigurationError):
        # A typo'd fault model must fail at spec time, not mid-simulation.
        EventSpec(kind="corrupt", at_interactions=5, fraction=0.1, fault="rest")
    with pytest.raises(ConfigurationError):
        EventSpec(kind="leave", at_interactions=5)  # no magnitude
    with pytest.raises(ConfigurationError):
        EventSpec(kind="leave", fraction=0.5)  # no time
    with pytest.raises(ConfigurationError):
        EventSpec(kind="leave", at_interactions=5, fraction=1.5)
    with pytest.raises(ConfigurationError):
        EventSpec(kind="corrupt", at_interactions=5, fraction=0.1, repeat=3)
    with pytest.raises(ConfigurationError):
        EventSpec(kind="restart", at_interactions=5, restart=True)
    with pytest.raises(ConfigurationError, match="unknown event kind 'partition'"):
        EventSpec.from_dict({"kind": "partition", "at_interactions": 0})
    with pytest.raises(ConfigurationError, match="unknown event fields: rate"):
        EventSpec.from_dict(
            {"kind": "leave", "at_interactions": 5, "count": 1, "rate": 2.0}
        )


def test_fraction_parameter_reference_resolves_from_params():
    events = [EventSpec(kind="join", at_interactions=10, fraction="churn")]
    timeline = expand_events(events, 16, {"churn": 0.5}, seed=0)
    assert len(timeline) == 1
    with pytest.raises(ConfigurationError):
        expand_events(events, 16, {}, seed=0)


def test_periodic_events_expand_into_occurrences():
    events = [
        EventSpec(
            kind="corrupt",
            fault="reset",
            at_interactions=100,
            every=BudgetPolicy(factor=2.0, n_exponent=1.0, log_exponent=0.0),
            repeat=3,
            fraction=0.1,
            label="storm",
        )
    ]
    timeline = expand_events(events, 50, {}, seed=0)
    assert [event.at for event in timeline] == [100, 200, 300]
    assert [event.label for event in timeline] == ["storm#1", "storm#2", "storm#3"]


def test_execute_scenario_cell_records_recovery_on_both_backends():
    spec = _tiny_spec()
    for cell in spec.cells():
        record = execute_scenario_cell(
            {
                "cell_id": cell.cell_id,
                "n": cell.n,
                "backend": cell.backend,
                "params": dict(cell.params),
                "seeds": list(cell.seeds),
                "spec": spec.to_dict(),
            }
        )
        assert record["error"] is None, record["error"]
        stats = record["stats"]
        assert stats["recovered_runs"] == 1
        assert stats["post_accuracy"]["mean"] == 1.0
        run = record["runs"][0]
        assert run["n"] == 12  # 16 - 25%
        assert run["consensus_output"] == 12
        # Token conservation holds at every measured boundary.
        for measurement in run["invariants"]:
            values = measurement["values"]
            assert values["token-sum"] == values["population"]


def test_undisturbed_runs_do_not_count_as_recovered():
    # The event lands beyond the budget, so no disturbance ever fires; the
    # run converges undisturbed, which must not read as churn recovery.
    spec = _tiny_spec(
        backends=["batch"],
        events=[
            EventSpec(
                kind="leave",
                at=BudgetPolicy(factor=99.0, n_exponent=2.0, log_exponent=0.0),
                fraction=0.25,
            )
        ],
        budget=BudgetPolicy(factor=24.0, n_exponent=2.0, log_exponent=0.0),
    )
    cell = spec.cells()[0]
    record = execute_scenario_cell(
        {
            "cell_id": cell.cell_id,
            "n": cell.n,
            "backend": cell.backend,
            "params": {},
            "seeds": list(cell.seeds),
            "spec": spec.to_dict(),
        }
    )
    assert record["error"] is None
    stats = record["stats"]
    assert stats["recovered_runs"] == 0
    assert stats["undisturbed_runs"] == 1
    assert stats["recovery_interactions"] is None


def test_scenario_runner_and_document_build():
    spec = _tiny_spec(backends=["batch"])
    runner = ScenarioRunner(spec, workers=1)
    cells = runner.run()
    document = build_document(spec, cells, workers=1)
    assert document["artifact"] == "scenario"
    assert document["failed_cells"] == []
    assert document["cells"][0]["backend"] == "batch"
    # The spec embedded in the artifact reconstructs the scenario.
    assert ScenarioSpec.from_dict(document["spec"]) == spec


def test_scenario_cell_timeout_produces_clean_failure():
    spec = _tiny_spec(
        backends=["agent"],
        ns=[128],
        budget=BudgetPolicy(factor=10_000.0, n_exponent=2.0, log_exponent=0.0),
        events=[
            EventSpec(
                kind="leave",
                at=BudgetPolicy(factor=9_999.0, n_exponent=2.0, log_exponent=0.0),
                fraction=0.5,
            )
        ],
        cell_timeout_s=0.05,
    )
    cell = spec.cells()[0]
    record = execute_scenario_cell(
        {
            "cell_id": cell.cell_id,
            "n": cell.n,
            "backend": cell.backend,
            "params": {},
            "seeds": list(cell.seeds),
            "spec": spec.to_dict(),
        }
    )
    assert record["error"] is not None
    assert "wall-time budget" in record["error"]


def test_builtin_scenarios_construct_and_headline_exists():
    scenarios = builtin_scenarios()
    assert "recount-churn" in scenarios
    assert "recount-smoke" in scenarios
    headline = scenarios["recount-churn"]
    assert headline.backends == ["agent", "batch"]
    assert headline.invariants == ["population", "token-sum"]


# --------------------------------------------------------------------------
# Sweep satellites: cell timeouts, param_grid builtin, plotting
# --------------------------------------------------------------------------


def test_sweep_cell_timeout_marks_cell_failed_without_hanging():
    spec = SweepSpec(
        name="timeout-probe",
        protocol="backup-exact",
        ns=[256],
        seeds_per_cell=3,
        backend="agent",
        budget=BudgetPolicy(factor=10_000.0, n_exponent=2.0, log_exponent=0.0),
        cell_timeout_s=0.05,
    )
    payloads = SweepRunner(spec, workers=1).payloads(spec.cells())
    record = execute_cell(payloads[0])
    assert record["error"] is not None
    assert "wall-time budget" in record["error"]
    assert record["wall_time_s"] < 5.0
    # Partial runs are preserved for inspection; stats stay unset (failed).
    assert record["stats"] is None


def test_sweep_spec_rejects_bad_timeout():
    with pytest.raises(ConfigurationError):
        SweepSpec(
            name="bad", protocol="one-way-epidemic", ns=[8], cell_timeout_s=0.0
        )


def test_accuracy_grid_builtin_exercises_param_grid():
    spec = KINDS["sweep"].resolve_builtin("accuracy-grid")
    assert spec.param_grid
    cells = spec.cells()
    assert len(cells) == len(spec.ns) * len(spec.param_grid["clock_modulus"])
    assert any("clock_modulus=16" in cell.cell_id for cell in cells)


def test_ascii_loglog_renders_points_fit_and_legend():
    points = [(100, 1e4, "a"), (1000, 1e6, "a"), (100, 5e3, "b")]
    fit = {"coefficient": 1.0, "exponent": 2.0, "r_squared": 0.99}
    art = ascii_loglog(points, fit)
    assert "o a" in art and "x b" in art
    assert "n^2.000" in art
    assert ascii_loglog([]) == "(no plottable points)"


def test_render_sweep_plot_from_document():
    document = {
        "name": "demo",
        "fits": {"convergence_interactions": {"coefficient": 2.0, "exponent": 1.5, "r_squared": 1.0}},
        "cells": [
            {
                "cell_id": "proto-n64",
                "n": 64,
                "stats": {"convergence_interactions": {"mean": 1_000.0}},
            },
            {
                "cell_id": "proto-n256",
                "n": 256,
                "stats": {"convergence_interactions": {"mean": 9_000.0}},
            },
            {"cell_id": "broken-n64", "n": 64, "error": "boom"},
        ],
    }
    assert sweep_plot_points(document) == [
        (64.0, 1000.0, "proto"),
        (256.0, 9000.0, "proto"),
    ]
    art = render_sweep_plot(document)
    assert "demo" in art and "o proto" in art


def test_outputs_within_spread_predicate():
    predicate = outputs_within_spread(1)
    assert predicate(Counter({4: 3, 5: 2}))
    assert not predicate(Counter({3: 1, 5: 2}))
    assert not predicate([])
    with pytest.raises(ValueError):
        outputs_within_spread(-1)


# --------------------------------------------------------------------------
# Clock-phase corruption fault (mod-40 residue gate)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_clock_phase_fault_desynchronises_clocks(backend):
    from repro.counting.keys import PHASE_RESIDUE_MODULUS

    simulator = Simulator(
        resolve_protocol("approximate-stable").build(24, {}), 24, seed=3, backend=backend
    )
    simulator.run(max_interactions=2_000)

    def phase_histogram():
        counts = Counter()
        for key, multiplicity in simulator.state_key_counts().items():
            counts[key[1][1]] += multiplicity
        return counts

    before = phase_histogram()
    details = resolve_fault("clock-phase-corruption").apply(
        simulator, 8, random.Random(5)
    )
    assert details["victims"] == 8
    assert details["changed"] == 8  # a non-zero shift always changes the key
    after = phase_histogram()
    assert sum(after.values()) == 24
    assert after != before  # residues actually moved
    # healthy clocks stay within one phase of each other (Lemma 5); the
    # corrupted population spans a wider residue range.
    assert len(after) > len(before)


def test_clock_phase_fault_requires_a_phase_clock():
    simulator = Simulator(OneWayEpidemic(), 16, seed=0, backend="batch")
    with pytest.raises(ConfigurationError, match="phase-clock"):
        resolve_fault("clock-phase-corruption").apply(simulator, 4, random.Random(0))


# --------------------------------------------------------------------------
# Error-flags invariant and the stable-detect builtin
# --------------------------------------------------------------------------


def test_error_flags_invariant_counts_raised_flags():
    protocol = resolve_protocol("approximate-stable").build(16, {})
    invariant = resolve_invariant("error-flags")
    healthy = protocol.initial_state(0)
    flagged = protocol.initial_state(1)
    flagged.error = True
    counts = Counter(
        {protocol.state_key(healthy): 5, protocol.state_key(flagged): 3}
    )
    assert invariant.compute(protocol, counts) == 3
    with pytest.raises(ConfigurationError, match="stable hybrid"):
        invariant.compute(OneWayEpidemic(), Counter())


def test_stable_detect_builtin_is_well_formed():
    spec = builtin_scenarios()["stable-detect"]
    assert spec.protocol == "approximate-stable"
    assert "error-flags" in spec.invariants
    kinds = [event.kind for event in spec.events]
    assert "join" in kinds and "corrupt" in kinds
    assert any(event.restart for event in spec.events)  # churn + restart
    faults = {event.fault for event in spec.events if event.kind == "corrupt"}
    assert faults == {"clock-phase-corruption"}
    # the keep-alive event holds the run open past backup-path convergence
    assert spec.events[-1].at.budget(96) > spec.events[-2].at.budget(96)
    ScenarioSpec.from_json(spec.to_json())


def test_committed_stable_detect_artifact_shows_detection_firing():
    path = os.path.join(os.path.dirname(__file__), "..", "SCENARIO_stable-detect.json")
    if not os.path.exists(path):
        pytest.skip("SCENARIO_stable-detect.json not generated")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["spec"]["protocol"] == "approximate-stable"
    for cell in document["cells"]:
        assert not cell.get("error")
        finals = [
            run["extra"]["timeline"][-1]["invariants"]["error-flags"]
            for run in cell["runs"]
        ]
        # the detection layer fired in at least half of every cell's runs,
        # and every run still converged (via the always-correct backup)
        assert sum(1 for value in finals if value > 0) * 2 >= len(finals)
        assert all(run["converged"] for run in cell["runs"])


# --------------------------------------------------------------------------
# Scenario --resume
# --------------------------------------------------------------------------


def test_scenario_resume_merges_completed_cells(tmp_path):
    spec = _tiny_spec(ns=[16, 24], backends=["batch"])
    runner = ScenarioRunner(spec, workers=1)
    fresh = runner.run()
    document = build_document(spec, fresh, workers=1)
    done = completed_cell_ids(document, spec)
    assert done == {cell.cell_id for cell in spec.cells()}
    # resuming skips everything; the merge keeps the old records in grid order
    resumed = ScenarioRunner(spec, workers=1).run(skip_cell_ids=done)
    assert resumed == []
    merged = merge_cells(document, resumed, spec)
    assert [cell["cell_id"] for cell in merged] == [
        cell.cell_id for cell in spec.cells()
    ]
    # a failed cell is not treated as completed and gets re-run
    document["cells"][0]["error"] = "boom"
    partial = completed_cell_ids(document, spec)
    assert len(partial) == len(done) - 1


def test_cli_scenario_resume_round_trip(tmp_path, capsys):
    from repro.scenarios.cli import main as chaos_main

    spec = _tiny_spec(ns=[16], backends=["batch"])
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(spec.to_json())
    args = ["--spec", str(spec_path), "--output-dir", str(tmp_path), "--workers", "1"]
    assert chaos_main(args) == 0
    first = capsys.readouterr().out
    assert "0 resumed" in first
    assert chaos_main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "0 run now, 1 resumed" in second
