"""Seeded pruning-regime runs that never engage the pair kernel are pinned.

The factorised pair kernel draws its seed from the pair stream only when it
engages, so a run whose active pair table stays at or below
``KERNEL_MIN_PAIRS`` entries must consume its streams exactly as the
Fenwick path always has, whatever the kernel looks like.  The expected
values below were recorded before the kernel was rewritten in pure Python:
the ``sweep-service`` epidemic cells (never wider than a couple of active
pairs) and ``backup-exact`` with the kernel held off.  Each run pins its
interactions, convergence interaction, output histogram, ``sampler``
telemetry and a digest of the pair stream's final state.
"""

import hashlib

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import Simulator, all_outputs_equal
from repro.engine import backends
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
