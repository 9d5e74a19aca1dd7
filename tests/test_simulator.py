"""Unit tests for the simulator core (agent backend) and its regressions."""

from types import SimpleNamespace

import pytest

from repro.engine import (
    CallbackHook,
    ConfigurationError,
    SimulationError,
    Simulator,
    TimelineEvent,
    UniformityError,
    all_outputs_equal,
    default_interaction_budget,
    simulate,
)
from repro.engine import simulator as simulator_module
from repro.engine.scheduler import SequenceScheduler
from repro.experiments.registry import resolve_protocol
from repro.primitives.epidemic import MaximumBroadcast, OneWayEpidemic
from repro.primitives.load_balancing import ClassicalLoadBalancing


def test_epidemic_converges_and_reports_consensus():
    result = simulate(
        OneWayEpidemic(),
        32,
        seed=11,
        convergence=all_outputs_equal(1),
    )
    assert result.converged
    assert result.consensus_output == 1
    assert result.stopped_reason in ("converged", "converged-at-budget")
    assert result.convergence_interaction is not None
    assert result.agreement_fraction == 1.0
    assert result.extra["backend"] == "agent"
    assert result.extra["transition_calls"] == result.interactions


def test_budget_exhaustion_without_predicate():
    result = simulate(OneWayEpidemic(), 8, seed=0, max_interactions=40)
    assert result.interactions == 40
    assert result.stopped_reason == "budget"
    assert not result.converged


def test_require_convergence_raises_on_budget_exhaustion():
    with pytest.raises(SimulationError):
        simulate(
            OneWayEpidemic(),
            16,
            seed=0,
            max_interactions=5,
            convergence=all_outputs_equal(1),
            require_convergence=True,
        )


def test_seed_repr_is_recorded_for_non_int_seeds():
    # Regression: string seeds used to be silently recorded as None.
    result = simulate(OneWayEpidemic(), 8, seed="exp-1", max_interactions=10)
    assert result.seed == repr("exp-1")
    assert simulate(OneWayEpidemic(), 8, seed=7, max_interactions=10).seed == 7
    assert simulate(OneWayEpidemic(), 8, seed=None, max_interactions=10).seed is None


def test_final_check_not_double_recorded_when_budget_aligns_with_cadence():
    # Regression: with the budget a multiple of check_interval, the final
    # configuration used to be recorded twice (once by the in-loop checkpoint
    # and once by the budget-exhaustion check), inflating check counts and
    # confirmation streaks.
    result = simulate(
        OneWayEpidemic(source_count=8),
        8,  # every agent already informed: predicate holds from the start
        seed=0,
        max_interactions=40,
        check_interval=10,
        convergence=all_outputs_equal(1),
        stop_when_converged=False,
    )
    assert result.extra["convergence_checks"] == 4
    assert result.extra["satisfied_checks"] == 4
    assert result.converged


def test_final_check_recorded_once_when_budget_misaligned():
    result = simulate(
        OneWayEpidemic(source_count=8),
        8,
        seed=0,
        max_interactions=45,
        check_interval=10,
        convergence=all_outputs_equal(1),
        stop_when_converged=False,
    )
    # Four in-loop checkpoints (10, 20, 30, 40) plus the final check at 45.
    assert result.extra["convergence_checks"] == 5
    assert result.converged


def test_confirm_checks_requires_full_streak():
    # The predicate holds from the start, so the run stops after exactly
    # confirm_checks checkpoints.
    result = simulate(
        OneWayEpidemic(source_count=8),
        8,
        seed=0,
        max_interactions=1000,
        check_interval=10,
        convergence=all_outputs_equal(1),
        confirm_checks=3,
    )
    assert result.stopped_reason == "converged"
    assert result.interactions == 30
    assert result.convergence_interaction == 1


def test_min_participation_and_state_space_tracking():
    simulator = Simulator(OneWayEpidemic(), 6, seed=2)
    for _ in range(200):
        simulator.step()
    assert simulator.counter.total == 200
    assert simulator.counter.min_participation >= 1
    assert simulator.state_space.distinct_states == 2
    assert simulator.is_stable_configuration() is (
        len(set(simulator.state_keys())) == 1
    )


def test_hooks_receive_events():
    events = []
    hook = CallbackHook(
        on_start=lambda sim: events.append("start"),
        on_checkpoint=lambda sim, ok: events.append(("checkpoint", sim.interactions)),
        on_timeline_event=lambda sim, event, record: events.append(("event", record["at"])),
        on_end=lambda sim: events.append("end"),
    )
    simulate(
        OneWayEpidemic(),
        8,
        seed=0,
        max_interactions=16,
        check_interval=8,
        convergence=all_outputs_equal(1),
        stop_when_converged=False,
        hooks=[hook],
        timeline=[TimelineEvent(at=12, kind="noop", apply=lambda sim: {})],
    )
    assert events[0] == "start"
    assert events[-1] == "end"
    # Checkpoints on the cadence, plus one pinning the configuration the
    # event meets; the event's hook call follows it.
    assert events[1:-1] == [
        ("checkpoint", 8), ("checkpoint", 12), ("event", 12), ("checkpoint", 16),
    ]


def test_sequence_scheduler_drives_chosen_pairs():
    protocol = MaximumBroadcast([5, 0, 0])
    simulator = Simulator(protocol, 3, scheduler=SequenceScheduler([(1, 0), (2, 1)]))
    simulator.step()
    simulator.step()
    assert [state.value for state in simulator.states] == [5, 5, 5]


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        Simulator(OneWayEpidemic(), 1)
    with pytest.raises(ConfigurationError):
        simulate(OneWayEpidemic(), 4, max_interactions=-1)
    with pytest.raises(ConfigurationError):
        simulate(OneWayEpidemic(), 4, check_interval=0, convergence=all_outputs_equal())
    with pytest.raises(ConfigurationError):
        simulate(OneWayEpidemic(), 4, confirm_checks=0, convergence=all_outputs_equal())
    with pytest.raises(ConfigurationError):
        Simulator(OneWayEpidemic(), 4, backend="vectorised")
    with pytest.raises(ConfigurationError):
        default_interaction_budget(1)


def test_require_uniform_rejects_non_uniform_protocols():
    class NonUniform(OneWayEpidemic):
        uniform = False

    with pytest.raises(UniformityError):
        Simulator(NonUniform(), 4, require_uniform=True)


def test_result_summary_is_json_friendly():
    import json

    result = simulate(
        ClassicalLoadBalancing([8]),
        4,
        seed=3,
        max_interactions=100,
    )
    summary = result.summary()
    json.dumps(summary)
    assert summary["protocol"] == "classical-load-balancing"
    assert summary["backend"] == "agent"
    assert summary["n"] == 4


# --------------------------------------------------------------------------
# Wall-time budgets
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["agent", "batch"])
def test_a_timed_run_stops_within_n_interactions_of_its_deadline(monkeypatch, backend):
    n = 32
    simulator = Simulator(resolve_protocol("approximate").build(n, {}), n, seed=5, backend=backend)
    # The clock passes the deadline as soon as the run has advanced at all.
    clock = SimpleNamespace(
        perf_counter=lambda: 0.0 if simulator.backend.interactions == 0 else 3600.0
    )
    monkeypatch.setattr(simulator_module, "time", clock)
    result = simulator.run(
        max_interactions=100 * n * n,
        convergence=lambda view: False,
        check_interval=50 * n * n,
        max_wall_time_s=1.0,
    )
    assert result.stopped_reason == "wall-time"
    assert result.interactions == n


def _stream(simulator, result):
    backend = simulator.backend
    rngs = (
        (backend._scheduler_rng, backend._agent_rng)
        if simulator.backend_name == "agent"
        else (backend._pair_rng, backend._agent_rng)
    )
    return {
        "interactions": result.interactions,
        "stopped_reason": result.stopped_reason,
        "state_key_counts": backend.state_key_counts(),
        "state_space": result.state_space,
        "transition_calls": result.extra["transition_calls"],
        "rng_states": [rng.getstate() for rng in rngs],
    }


@pytest.mark.parametrize(
    "name,n,budget,backend",
    [
        ("approximate", 32, 6_000, "agent"),
        ("approximate", 64, 20_000, "batch"),  # dense, recorded
        ("count-exact", 32, 12_000, "batch"),  # dense, mostly unrecorded stretches
    ],
)
def test_a_timed_run_that_finishes_in_time_equals_the_untimed_run(name, n, budget, backend):
    runs = []
    for wall in (None, 600.0):
        simulator = Simulator(resolve_protocol(name).build(n, {}), n, seed=8, backend=backend)
        result = simulator.run(max_interactions=budget, max_wall_time_s=wall)
        runs.append(_stream(simulator, result))
    untimed, timed = runs
    assert untimed["stopped_reason"] == "budget"
    assert timed == untimed
