"""Seeded pruning-regime runs are pinned, with and without the pair kernel.

The factorised pair kernel draws its seed from the pair stream only when it
engages, so a run whose active pair table stays at or below
``KERNEL_MIN_PAIRS`` entries must consume its streams exactly as the
Fenwick path always has, whatever the kernel looks like.  The expected
values of those runs were recorded before the kernel was rewritten in pure
Python: the ``sweep-service`` epidemic cells (never wider than a couple of
active pairs) and ``backup-exact`` with the kernel held off.  Each run pins
its interactions, convergence interaction, output histogram, ``sampler``
telemetry and a digest of the pair stream's final state.

Runs that do engage the kernel are pinned too, to values recorded before
the pruning regime's event loops were fused: ``backup-exact`` at n = 400
and n = 10^3 as the benchmark runs it, and a churn scenario whose leave and
join go through the engaged kernel.  They pin, besides the above, the
phase ``ops`` and a digest of the kernel generator's final state.
"""

import hashlib

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import Simulator, all_outputs_equal
from repro.engine import backends
from repro.experiments.registry import resolve_protocol
from repro.primitives.epidemic import OneWayEpidemic

#: A pair-table width the kernel never reaches: pins the Fenwick path.
NEVER = 10**9


def _fingerprint(simulator, result):
    telemetry = result.extra["telemetry"]
    return {
        "interactions": result.interactions,
        "convergence_interaction": result.convergence_interaction,
        "output_counts": sorted(result.output_counts.items()),
        "sampler": telemetry["sampler"],
        "pair_rng": hashlib.sha256(
            repr(simulator.backend._pair_rng.getstate()).encode()
        ).hexdigest(),
    }


def _fenwick(draws, rebuilds, updates):
    return {
        "regime": "pruning", "strategy": "fenwick", "slots": 0, "dead_slots": 0,
        "draws": draws, "rebuilds": rebuilds, "updates": updates,
    }


PINNED_EPIDEMICS = {
    (600, 1): {
        "interactions": 8046,
        "convergence_interaction": 7801,
        "output_counts": [(1, 600)],
        "sampler": _fenwick(599, 599, 0),
        "pair_rng": "c0396ae186b448531b2232b3dc5845b6817f83a7e8acb089eb6dfcd4e688ba54",
    },
    (712, 2): {
        "interactions": 8748,
        "convergence_interaction": 8545,
        "output_counts": [(1, 712)],
        "sampler": _fenwick(710, 710, 0),
        "pair_rng": "e67d5a5175af1c394977822ebf6ab23731cd856305c156dd44d038dfe9393993",
    },
    (840, 4): {
        "interactions": 12267,
        "convergence_interaction": 11761,
        "output_counts": [(1, 840)],
        "sampler": _fenwick(836, 836, 0),
        "pair_rng": "501bd15f1781344f0702550d56b60528c5c4dbc99cb91406b857d337e3dcf602",
    },
}

PINNED_BACKUP_EXACT = {
    "interactions": 5410,
    "convergence_interaction": 5377,
    "output_counts": [(96, 96)],
    "sampler": _fenwick(899, 658, 11074),
    "pair_rng": "1b16bead24b29893b8a1c1b5f5d75c21e2851cc78c219b16bf0f8686e3da1f8c",
}


@pytest.mark.parametrize("n, sources", sorted(PINNED_EPIDEMICS))
def test_epidemic_cell_streams_are_pinned(n, sources):
    simulator = Simulator(
        OneWayEpidemic(source_count=sources), n, seed=3, backend="batch"
    )
    result = simulator.run(convergence=all_outputs_equal(1))
    assert result.converged
    assert result.extra["telemetry"]["accel"]["engaged"] is False
    assert _fingerprint(simulator, result) == PINNED_EPIDEMICS[(n, sources)]


def test_backup_exact_stream_with_the_kernel_held_off_is_pinned(monkeypatch):
    monkeypatch.setattr(backends, "KERNEL_MIN_PAIRS", NEVER)
    n = 96
    simulator = Simulator(ExactBackupProtocol(), n, seed=7, backend="batch")
    result = simulator.run(
        convergence=all_outputs_equal(n),
        check_interval=n,
        max_interactions=500_000,
    )
    assert result.converged
    assert result.extra["telemetry"]["accel"]["engaged"] is False
    assert _fingerprint(simulator, result) == PINNED_BACKUP_EXACT


def _digest(state):
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _engaged_fingerprint(simulator, interactions, convergence_interaction, telemetry):
    backend = simulator.backend
    kernel = backend._pair_kernel
    return {
        "interactions": interactions,
        "convergence_interaction": convergence_interaction,
        "output_counts": sorted(simulator.output_counts().items()),
        "sampler": telemetry["sampler"],
        "phase_ops": {name: phase["ops"] for name, phase in telemetry["phases"].items()},
        "pair_rng": _digest(backend._pair_rng.getstate()),
        "kernel_rng": _digest(kernel._random.__self__.getstate()),
    }


def _factorised(slots, dead_slots, draws, updates, update_columns, rejections, retired):
    return {
        "regime": "pruning", "strategy": "factorised", "kernel": "factorised-pair",
        "slots": slots, "dead_slots": dead_slots, "draws": draws, "updates": updates,
        "update_columns": update_columns, "rejections": rejections, "retired": [retired],
    }


def _engaged_at(interaction, draws):
    """The Fenwick record the kernel retired when it engaged."""
    return dict(
        _fenwick(draws, draws, 0), slots=48, retired_by="accel-engage",
        retired_at=interaction,
    )


def _phase_ops(checkpoint, events):
    return {
        "checkpoint": checkpoint, "pair_weights": events, "sampling": events,
        "transition": events,
    }


PINNED_ENGAGED = {
    (400, 11): {
        "interactions": 75435,
        "convergence_interaction": 75201,
        "output_counts": [(400, 400)],
        "sampler": _factorised(41, 39, 4836, 10201, 10201, 7, _engaged_at(146, 110)),
        "phase_ops": _phase_ops(188, 4946),
        "pair_rng": "12a1a28af3ba7ae14c68006ab90b7f64afc7580071e9d2c8a9402a8d83e03746",
        "kernel_rng": "ba9eb586a57ca79549fb06c4f37e31773dc4edfdd3aba873fc4fdb727b982b6f",
    },
    (400, 12): {
        "interactions": 469475,
        "convergence_interaction": 469201,
        "output_counts": [(400, 400)],
        "sampler": _factorised(52, 50, 6246, 13021, 13021, 9, _engaged_at(137, 103)),
        "phase_ops": _phase_ops(1173, 6349),
        "pair_rng": "f0deb12b581aeaa8a2170bb89e7b682555f5bf6dea229f7656f3f909a9b0d37a",
        "kernel_rng": "6653c52f9d9bd4bd19d8b3216c7b4e6001bf3de532427728f09f4b8a8f4c904a",
    },
    (1_000, 3): {
        "interactions": 1817370,
        "convergence_interaction": 1817001,
        "output_counts": [(1000, 1000)],
        "sampler": _factorised(18, 16, 19619, 40635, 40635, 9, _engaged_at(215, 177)),
        "phase_ops": _phase_ops(1817, 19796),
        "pair_rng": "17af955d042851b4df36b263fd91cd2926921ca56828b9d8e3897a26d846930b",
        "kernel_rng": "b043851580a73d83432146d21ef10ab841f08c338ccf41d48dbb4ee979f673f6",
    },
}

PINNED_CHURN = {
    "interactions": 42858,
    "convergence_interaction": None,
    "output_counts": [(282, 256)],
    "sampler": _factorised(42, 40, 4524, 9407, 9407, 9, _engaged_at(128, 82)),
    "phase_ops": _phase_ops(1, 4606),
    "pair_rng": "f8fa6e7dd5aecd555b1b87c769e44fe6f69551b2dfeff9820295637150248813",
    "kernel_rng": "ac6fcd513775e28de92ffb27edc2ddc72eb7288892c79b0c1e8dde899af6de94",
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_ENGAGED))
def test_backup_exact_streams_on_the_engaged_kernel_are_pinned(n, seed):
    # The benchmark's own run: the registry protocol to its predicate under a
    # 16 n^2 budget.
    entry = resolve_protocol("backup-exact")
    simulator = Simulator(entry.build(n, {}), n, seed=seed, backend="batch")
    result = simulator.run(
        convergence=entry.convergence(n, {}), max_interactions=16 * n**2
    )
    assert result.converged
    telemetry = result.extra["telemetry"]
    assert telemetry["accel"] == {"engaged": True}
    fingerprint = _engaged_fingerprint(
        simulator, result.interactions, result.convergence_interaction, telemetry
    )
    assert fingerprint == PINNED_ENGAGED[(n, seed)]


def test_scenario_churn_stream_on_the_engaged_kernel_is_pinned(monkeypatch):
    # The run of test_vectorized's churn scenario: 10% of the agents leave
    # and as many join at interaction 20,000, with the kernel engaged.
    from repro.scenarios import runner
    from repro.scenarios.spec import ScenarioSpec

    simulators = []

    class Capturing(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            simulators.append(self)

    monkeypatch.setattr(runner, "Simulator", Capturing)
    spec = ScenarioSpec(
        name="c",
        protocol="backup-exact",
        ns=[256],
        seeds_per_cell=1,
        backends=["batch"],
        events=[{"kind": "replace", "at_interactions": 20_000, "fraction": 0.1}],
        max_checks=20,
    )
    record = runner.execute_scenario_cell(
        runner.scenario_cell_payload(spec.to_dict(), spec.cells()[0])
    )
    assert record["error"] is None
    (run,) = record["runs"]
    (simulator,) = simulators
    assert run["extra"]["timeline"][0]["fired"] is True
    fingerprint = _engaged_fingerprint(
        simulator,
        run["interactions"],
        run["convergence_interaction"],
        run["extra"]["telemetry"],
    )
    assert fingerprint == PINNED_CHURN
