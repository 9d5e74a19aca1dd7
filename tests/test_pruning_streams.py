"""Seeded pruning-regime runs are pinned.

The pruning regime draws every skip and pair type from the factorised pair
kernel, which takes its uniforms from the pair stream.  The expected values
below were recorded when the kernel became the regime's only draw path,
after the exact-law and agent-loop KS tests of ``tests/test_exact_laws.py``
passed on it.  A change that moves one of them changes the stream and
needs those tests (``pytest -m stats``) to pass before new pins are
recorded.

The runs are the ``sweep-service`` epidemic cells, ``backup-exact`` at
n = 400 and n = 10^3 as the benchmark runs it, and a churn scenario whose
leave and join go through the kernel.  Each pins its interactions,
convergence interaction, output histogram, ``sampler`` telemetry, phase
``ops`` and a digest of the pair stream's final state.
"""

import hashlib

import pytest

from repro.engine import Simulator, all_outputs_equal
from repro.experiments.registry import resolve_protocol
from repro.primitives.epidemic import OneWayEpidemic


def _fingerprint(simulator, interactions, convergence_interaction, telemetry):
    return {
        "interactions": interactions,
        "convergence_interaction": convergence_interaction,
        "output_counts": sorted(simulator.output_counts().items()),
        "sampler": telemetry["sampler"],
        "phase_ops": {name: phase["ops"] for name, phase in telemetry["phases"].items()},
        "pair_rng": hashlib.sha256(
            repr(simulator.backend._pair_rng.getstate()).encode()
        ).hexdigest(),
    }


def _factorised(slots, dead_slots, draws, updates, rejections):
    return {
        "regime": "pruning", "strategy": "factorised", "kernel": "factorised-pair",
        "slots": slots, "dead_slots": dead_slots, "draws": draws, "updates": updates,
        "update_columns": updates, "rejections": rejections,
    }


def _phase_ops(checkpoint, events):
    """Every applied event of these runs changes the configuration."""
    return {
        "checkpoint": checkpoint, "pair_weights": events, "sampling": events,
        "transition": events,
    }


PINNED_EPIDEMICS = {
    (600, 1): {
        "interactions": 7925,
        "convergence_interaction": 7801,
        "output_counts": [(1, 600)],
        "sampler": _factorised(2, 1, 599, 1200, 0),
        "phase_ops": _phase_ops(13, 599),
        "pair_rng": "67a1861caed8e330661c5945a995412f297b81f88e3b46c11e65c705bbf78fb4",
    },
    (712, 2): {
        "interactions": 9855,
        "convergence_interaction": 9257,
        "output_counts": [(1, 712)],
        "sampler": _factorised(2, 1, 710, 1422, 0),
        "phase_ops": _phase_ops(13, 710),
        "pair_rng": "78f6804df86d072f0708f751a656228ea97040262e0bbb6bd74f526b0c6f33c1",
    },
    (840, 4): {
        "interactions": 10441,
        "convergence_interaction": 10081,
        "output_counts": [(1, 840)],
        "sampler": _factorised(2, 1, 836, 1674, 0),
        "phase_ops": _phase_ops(12, 836),
        "pair_rng": "b057fe0b52a2cec899d88b356da605d42a9dc1d42be38161c82c633e4d45643b",
    },
}


@pytest.mark.parametrize("n, sources", sorted(PINNED_EPIDEMICS))
def test_epidemic_cell_streams_are_pinned(n, sources):
    simulator = Simulator(
        OneWayEpidemic(source_count=sources), n, seed=3, backend="batch"
    )
    result = simulator.run(convergence=all_outputs_equal(1))
    assert result.converged
    fingerprint = _fingerprint(
        simulator,
        result.interactions,
        result.convergence_interaction,
        result.extra["telemetry"],
    )
    assert fingerprint == PINNED_EPIDEMICS[(n, sources)]


PINNED_BACKUP_EXACT = {
    (400, 11): {
        "interactions": 189893,
        "convergence_interaction": 189601,
        "output_counts": [(400, 400)],
        "sampler": _factorised(55, 53, 5525, 11690, 6),
        "phase_ops": _phase_ops(474, 5525),
        "pair_rng": "7115853b436731469133f37afd2b2dc47c443bb4e76c11dba500f3216580a3a0",
    },
    (400, 12): {
        "interactions": 210369,
        "convergence_interaction": 210001,
        "output_counts": [(400, 400)],
        "sampler": _factorised(49, 47, 4861, 10362, 9),
        "phase_ops": _phase_ops(525, 4861),
        "pair_rng": "7ce2300f2deaee6b3b98a30ad4b3611b8271f861e5c617bb4a623f52d808723b",
    },
    (1_000, 3): {
        "interactions": 1215674,
        "convergence_interaction": 1215001,
        "output_counts": [(1000, 1000)],
        "sampler": _factorised(28, 26, 22963, 47542, 7),
        "phase_ops": _phase_ops(1215, 22963),
        "pair_rng": "6df142f17cd4aa2f5729c61b1ce765667ab32265e83ee88f32f8250501552dd6",
    },
}

PINNED_CHURN = {
    "interactions": 88835,
    "convergence_interaction": None,
    "output_counts": [(282, 256)],
    "sampler": _factorised(6, 4, 4388, 9223, 8),
    "phase_ops": _phase_ops(2, 4388),
    "pair_rng": "ad4fb04b4facf5e605d24fcfcffc38147a3cf12b0ca7d4bc727cd543437b7f45",
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_BACKUP_EXACT))
def test_backup_exact_streams_on_the_engaged_kernel_are_pinned(n, seed):
    # The benchmark's own run: the registry protocol to its predicate under a
    # 16 n^2 budget.
    entry = resolve_protocol("backup-exact")
    simulator = Simulator(entry.build(n, {}), n, seed=seed, backend="batch")
    result = simulator.run(
        convergence=entry.convergence(n, {}), max_interactions=16 * n**2
    )
    assert result.converged
    fingerprint = _fingerprint(
        simulator,
        result.interactions,
        result.convergence_interaction,
        result.extra["telemetry"],
    )
    assert fingerprint == PINNED_BACKUP_EXACT[(n, seed)]


def test_scenario_churn_stream_on_the_engaged_kernel_is_pinned(monkeypatch):
    # The run of test_vectorized's churn scenario: 10% of the agents leave
    # and as many join at interaction 20,000, through the kernel.
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
    fingerprint = _fingerprint(
        simulator,
        run["interactions"],
        run["convergence_interaction"],
        run["extra"]["telemetry"],
    )
    assert fingerprint == PINNED_CHURN
