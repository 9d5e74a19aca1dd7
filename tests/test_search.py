"""Tests for the adversarial scenario search (repro.scenarios.search).

The driver tests run against *oracle executors* — fakes that decide
survival from the probe's mutated value alone — so the bisection and
evolution logic is exercised deterministically and fast, without
simulating populations.  Worker-crash recovery is driven through the
``pool_factory`` test seam of the shared :class:`PoolExecutor`.
"""

import json
import multiprocessing
import os

import pytest

from repro.engine.errors import ConfigurationError, ExperimentError
from repro.experiments.spec import BudgetPolicy
from repro.scenarios import (
    DimensionSpec,
    EventSpec,
    FrontierRunner,
    GuaranteeSpec,
    ScenarioSpec,
    SearchSpec,
    builtin_searches,
    probe_base_seed,
    probe_scenario,
)
from repro.kinds import KINDS, build_frontier_document
from repro.resume import write_report
from repro.scenarios.cli import search_main

SEARCH = KINDS["search"]


# --------------------------------------------------------------------------
# Fixtures: base scenarios and oracle executors
# --------------------------------------------------------------------------


def one_cell_scenario(**overrides):
    """A tiny valid one-cell scenario for driver tests (never simulated)."""
    fields = dict(
        name="search-base",
        protocol="one-way-epidemic",
        ns=[32],
        backends=["batch"],
        seeds_per_cell=2,
        events=[
            EventSpec(
                kind="leave",
                fraction=0.3,
                at=BudgetPolicy(factor=4.0, n_exponent=1.0, log_exponent=1.0),
            )
        ],
        budget=BudgetPolicy(factor=16.0, n_exponent=1.0, log_exponent=1.0),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def oracle_executor(breaks_when, calls=None):
    """A fake cell executor whose runs converge unless ``breaks_when`` says so.

    ``breaks_when(values)`` receives the mutated event values in event order
    (here: every event's ``fraction``).
    """

    def execute(payload):
        values = [event["fraction"] for event in payload["spec"]["events"]]
        broken = breaks_when(values)
        if calls is not None:
            calls.append(values)
        runs = [
            {
                "seed": seed,
                "converged": not broken,
                "post_accuracy": 0.0 if broken else 1.0,
                "stopped_reason": "budget" if broken else "converged",
                "interactions": 100,
            }
            for seed in payload["seeds"]
        ]
        return {
            "cell_id": payload["cell_id"],
            "n": payload["n"],
            "params": payload["params"],
            "seeds": payload["seeds"],
            "runs": runs,
            "stats": None,
            "error": None,
            "wall_time_s": 0.0,
        }

    return execute


def bisect_spec(**overrides):
    fields = dict(
        name="oracle-bisect",
        scenario=one_cell_scenario(),
        dimensions=[DimensionSpec(event=0, dimension="fraction", low=0.1, high=0.9)],
        guarantee=GuaranteeSpec(kind="recovered"),
        strategy="bisect",
        seeds_per_probe=2,
        tolerance=0.01,
    )
    fields.update(overrides)
    return SearchSpec(**fields)


# --------------------------------------------------------------------------
# Spec validation and round-trips
# --------------------------------------------------------------------------


def test_search_spec_round_trips_through_json():
    spec = bisect_spec()
    clone = SearchSpec.from_json(spec.to_json())
    assert clone.to_dict() == spec.to_dict()
    assert clone.dimensions[0].low == 0.1
    assert clone.guarantee.kind == "recovered"


def test_search_spec_rejects_typod_dimension():
    with pytest.raises(ConfigurationError, match="fractoin"):
        DimensionSpec(event=0, dimension="fractoin", low=0.1, high=0.9)
    with pytest.raises(ConfigurationError, match="unknown search-dimension fields"):
        DimensionSpec.from_dict(
            {"event": 0, "dimension": "fraction", "low": 0.1, "high": 0.9, "hgih": 1}
        )


def test_search_spec_validation_errors():
    # bisect needs exactly one dimension
    with pytest.raises(ConfigurationError, match="bisect"):
        bisect_spec(
            dimensions=[
                DimensionSpec(event=0, dimension="fraction", low=0.1, high=0.9),
                DimensionSpec(event=0, dimension="at_factor", low=1.0, high=8.0),
            ]
        )
    # the base scenario must expand to exactly one cell
    with pytest.raises(ConfigurationError, match="exactly one cell"):
        bisect_spec(scenario=one_cell_scenario(ns=[32, 64]))
    # dimension must reference an existing event and an applicable field
    with pytest.raises(ConfigurationError, match="event 3"):
        bisect_spec(
            dimensions=[DimensionSpec(event=3, dimension="fraction", low=0.1, high=0.9)]
        )
    with pytest.raises(ConfigurationError, match="rate"):
        bisect_spec(
            dimensions=[DimensionSpec(event=0, dimension="rate", low=0.5, high=4.0)]
        )
    # an invariant guarantee must be tracked by the base scenario
    with pytest.raises(ConfigurationError, match="not tracked"):
        bisect_spec(guarantee=GuaranteeSpec(kind="invariant", invariant="population"))


def test_guarantee_spec_validation():
    with pytest.raises(ConfigurationError, match="unknown guarantee kind"):
        GuaranteeSpec(kind="recoverd")
    with pytest.raises(ConfigurationError, match="threshold"):
        GuaranteeSpec(kind="accuracy", threshold=1.5)
    with pytest.raises(ConfigurationError, match="min_rate"):
        GuaranteeSpec(kind="recovered", min_rate=0.0)


def test_probe_scenario_mutates_dimension_and_derives_seeds():
    spec = bisect_spec()
    scenario = probe_scenario(spec, [0.42])
    assert scenario.events[0].fraction == 0.42
    assert scenario.seeds_per_cell == spec.seeds_per_probe
    assert scenario.base_seed == probe_base_seed(spec, [0.42])
    # value-derived seeding is path-independent: same values, same seeds
    assert scenario.cells()[0].seeds == probe_scenario(spec, [0.42]).cells()[0].seeds
    # a different probe point gets different seeds
    assert scenario.cells()[0].seeds != probe_scenario(spec, [0.43]).cells()[0].seeds


# --------------------------------------------------------------------------
# Bisection driver
# --------------------------------------------------------------------------


def test_bisect_converges_with_monotone_bracket_shrinkage():
    spec = bisect_spec()
    runner = FrontierRunner(
        spec, workers=1, executor=oracle_executor(lambda v: v[0] > 0.37)
    )
    result = runner.run()
    assert result["status"] == "bracketed"
    assert result["orientation"] == "increasing"
    assert abs(result["critical"] - 0.37) <= spec.tolerance
    brackets = [e["bracket_after"] for e in runner.history if "bracket_after" in e]
    widths = [high - low for low, high in brackets]
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    assert widths[-1] <= spec.tolerance
    # the bracket invariant: throughout, one end survives and one breaks
    for low, high in brackets:
        assert low <= 0.37 + spec.tolerance
        assert high >= 0.37 - spec.tolerance


def test_bisect_detects_decreasing_orientation():
    runner = FrontierRunner(
        bisect_spec(), workers=1, executor=oracle_executor(lambda v: v[0] < 0.6)
    )
    result = runner.run()
    assert result["status"] == "bracketed"
    assert result["orientation"] == "decreasing"
    assert abs(result["critical"] - 0.6) <= 0.01


def test_bisect_reports_no_frontier():
    runner = FrontierRunner(
        bisect_spec(), workers=1, executor=oracle_executor(lambda v: False)
    )
    result = runner.run()
    assert result["status"] == "no-frontier"
    assert result["outcome"] == "all-survive"
    assert result["critical"] is None
    assert len(runner.history) == 2  # only the two endpoints were probed


def test_bisect_replay_is_deterministic():
    spec = bisect_spec()
    first = FrontierRunner(
        spec, workers=1, executor=oracle_executor(lambda v: v[0] > 0.37)
    )
    second = FrontierRunner(
        bisect_spec(), workers=1, executor=oracle_executor(lambda v: v[0] > 0.37)
    )
    a, b = first.run(), second.run()
    assert a == b
    assert [e["values"] for e in first.history] == [e["values"] for e in second.history]
    assert [e["base_seed"] for e in first.history] == [
        e["base_seed"] for e in second.history
    ]


def test_probe_cache_and_budget_exhaustion():
    calls = []
    spec = bisect_spec(max_probes=3, tolerance=0.0001)
    runner = FrontierRunner(
        spec, workers=1, executor=oracle_executor(lambda v: v[0] > 0.37, calls)
    )
    result = runner.run()
    assert result["status"] == "budget-exhausted"
    assert len(calls) == 3  # endpoint, endpoint, one split — then the cap
    # revisiting a cached probe is free and returns the same entry
    entry = runner.run_probe([spec.dimensions[0].low])
    assert len(calls) == 3
    assert entry is runner.history[0]


def test_errored_probe_aborts_the_search():
    def exploding(payload):
        return {
            "cell_id": payload["cell_id"],
            "n": payload["n"],
            "params": payload["params"],
            "seeds": payload["seeds"],
            "runs": [],
            "stats": None,
            "error": "Traceback ...\nSimulationError: boom",
            "wall_time_s": 0.1,
        }

    runner = FrontierRunner(bisect_spec(), workers=1, executor=exploding)
    with pytest.raises(ExperimentError, match="boom"):
        runner.run()


# --------------------------------------------------------------------------
# Worker-crash recovery through the PoolExecutor seam
# --------------------------------------------------------------------------


class _FakeTask:
    def __init__(self, fn, payload, fail):
        self.fn, self.payload, self.fail = fn, payload, fail

    def get(self, timeout=None):
        if self.fail:
            raise multiprocessing.TimeoutError("worker lost")
        return self.fn(self.payload)


class _FakePool:
    def __init__(self, fail):
        self.fail = fail

    def apply_async(self, fn, args):
        return _FakeTask(fn, args[0], self.fail)

    def terminate(self):
        pass

    def join(self):
        pass


def test_worker_crash_is_retried_on_a_rebuilt_pool():
    pools = []

    def flaky_factory(workers):
        pools.append(workers)
        return _FakePool(fail=len(pools) == 1)  # first pool loses every task

    runner = FrontierRunner(
        bisect_spec(),
        workers=2,
        executor=oracle_executor(lambda v: v[0] > 0.37),
        pool_factory=flaky_factory,
        retries=1,
    )
    result = runner.run()
    assert result["status"] == "bracketed"
    assert abs(result["critical"] - 0.37) <= 0.01
    assert len(pools) >= 2  # the crashed pool was rebuilt


def test_worker_crash_exhausting_retries_fails_loudly():
    def dead_factory(workers):
        return _FakePool(fail=True)

    runner = FrontierRunner(
        bisect_spec(),
        workers=2,
        executor=oracle_executor(lambda v: v[0] > 0.37),
        pool_factory=dead_factory,
        retries=1,
    )
    with pytest.raises(ExperimentError, match="worker lost"):
        runner.run()


# --------------------------------------------------------------------------
# Evolutionary strategy
# --------------------------------------------------------------------------


def evolve_spec():
    scenario = one_cell_scenario(
        events=[
            EventSpec(
                kind="leave",
                fraction=0.2,
                at=BudgetPolicy(factor=4.0, n_exponent=1.0, log_exponent=1.0),
            ),
            EventSpec(
                kind="join",
                fraction=0.2,
                at=BudgetPolicy(factor=8.0, n_exponent=1.0, log_exponent=1.0),
            ),
        ]
    )
    return SearchSpec(
        name="oracle-evolve",
        scenario=scenario,
        dimensions=[
            DimensionSpec(event=0, dimension="fraction", low=0.05, high=0.6),
            DimensionSpec(event=1, dimension="fraction", low=0.05, high=0.6),
        ],
        guarantee=GuaranteeSpec(kind="recovered"),
        strategy="evolve",
        seeds_per_probe=2,
        max_probes=64,
        population=4,
        offspring=6,
        generations=4,
    )


def test_evolve_finds_a_mild_breaking_point():
    breaks = lambda v: v[0] + v[1] > 0.7  # noqa: E731 - oracle frontier line
    runner = FrontierRunner(evolve_spec(), workers=1, executor=oracle_executor(breaks))
    result = runner.run()
    assert result["status"] == "frontier-point"
    assert breaks(result["critical"])
    # the winner sits near the frontier line, not deep in the broken region
    assert sum(result["critical"]) < 1.1
    assert result["survived_frontier"] is not None
    # deterministic replay
    again = FrontierRunner(evolve_spec(), workers=1, executor=oracle_executor(breaks))
    assert again.run() == result


def test_evolve_reports_no_frontier_when_nothing_breaks():
    runner = FrontierRunner(
        evolve_spec(), workers=1, executor=oracle_executor(lambda v: False)
    )
    result = runner.run()
    assert result["status"] == "no-frontier"
    assert result["critical"] is None


# --------------------------------------------------------------------------
# Artifacts and CLI
# --------------------------------------------------------------------------


def test_frontier_artifact_round_trip(tmp_path):
    spec = bisect_spec()
    runner = FrontierRunner(
        spec, workers=1, executor=oracle_executor(lambda v: v[0] > 0.37)
    )
    result = runner.run()
    document = build_frontier_document(spec, result, runner.history, workers=1)
    path = SEARCH.path(str(tmp_path), spec.name)
    assert path == os.path.join(str(tmp_path), f"FRONTIER_{spec.name}.json")
    write_report(document, path)
    loaded = SEARCH.load_document(path)
    assert loaded["artifact"] == "frontier"
    assert loaded["status"] == "bracketed"
    assert SearchSpec.from_dict(loaded["spec"]).to_dict() == spec.to_dict()
    assert len(loaded["history"]) == len(runner.history)
    for entry in loaded["history"]:
        assert entry["base_seed"] == probe_base_seed(spec, entry["values"])
    # loading a non-frontier document fails loudly
    other = tmp_path / "SCENARIO_x.json"
    other.write_text(json.dumps({"artifact": "scenario"}))
    with pytest.raises(ExperimentError, match="not a frontier artifact"):
        SEARCH.load_document(str(other))
    assert SEARCH.load_document(str(tmp_path / "missing.json")) is None


def test_builtin_searches_construct_and_resolve():
    specs = builtin_searches()
    assert list(specs)[0] == SEARCH.headline == "epidemic-churn"
    assert {"epidemic-churn", "backup-recount", "search-smoke"} <= set(specs)
    for spec in specs.values():
        assert len(spec.scenario.cells()) == 1
        SearchSpec.from_json(spec.to_json())  # JSON round-trip constructs
    with pytest.raises(ConfigurationError, match="unknown builtin search"):
        SEARCH.resolve_builtin("nope")


def test_cli_search_runs_a_spec_file(tmp_path, capsys):
    spec = SEARCH.resolve_builtin("search-smoke")
    spec_path = tmp_path / "search.json"
    spec_path.write_text(spec.to_json())
    code = search_main(
        ["--spec", str(spec_path), "--output-dir", str(tmp_path), "--workers", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FRONTIER_search-smoke.json" in out
    document = SEARCH.load_document(SEARCH.path(str(tmp_path), "search-smoke"))
    assert document["status"] in ("bracketed", "no-frontier", "budget-exhausted")
    assert document["history"]
