"""Built-in sweep specifications reproducing the paper's scaling curves.

Each builtin is a ready-to-run :class:`~repro.experiments.spec.SweepSpec`;
``repro-sweep --builtin NAME`` executes one, ``--list`` enumerates them, and
``--spec`` dumps any of them as a JSON starting point for custom grids.

Calibration notes
-----------------
* ``counting-curve`` is the headline: the Appendix C.1 counting protocol
  measured over three decades of ``n``.  Lemma 12 bounds its convergence by
  ``O(n^2 log^2 n)`` interactions; empirically the mean sits near
  ``0.6 * n^2`` with a fitted exponent of about 1.95.  The batch backend's
  geometric skipping is what makes ``1.8 * 10^10`` interactions at
  ``n = 10^5`` a minutes-scale run.
* ``theorem-1`` and ``theorem-2`` measure the composed fast protocols.
  Every interaction of those protocols can change the configuration, so the
  batch backend processes events one by one and simulation cost scales with
  the interaction count — which is why their grids stop at ``n = 1024``.
* ``counting-smoke`` is the CI grid: two tiny cells, a couple of seconds.
"""

from __future__ import annotations

from typing import Dict

from .spec import BudgetPolicy, SweepSpec

__all__ = ["builtin_specs"]


def builtin_specs() -> Dict[str, SweepSpec]:
    """Construct the builtin sweeps (fresh instances each call)."""
    specs = [
        SweepSpec(
            name="counting-curve",
            protocol="backup-approximate",
            ns=[1_000, 10_000, 100_000],
            seeds_per_cell=5,
            backend="batch",
            budget=BudgetPolicy(factor=40.0, n_exponent=2.0, log_exponent=0.0),
            max_checks=500,
            description=(
                "Appendix C.1 approximate-counting protocol: interactions to "
                "agree on floor(log2 n), three decades of n; Lemma 12 predicts "
                "a scaling exponent of ~2."
            ),
        ),
        SweepSpec(
            name="theorem-1",
            protocol="approximate",
            ns=[128, 256, 512, 1_024],
            seeds_per_cell=5,
            backend="auto",
            budget=BudgetPolicy(factor=128.0, n_exponent=1.0, log_exponent=2.0),
            max_checks=2_000,
            description=(
                "Protocol Approximate (Theorem 1): interactions until every "
                "output is floor/ceil(log2 n); the paper predicts O(n log^2 n)."
            ),
        ),
        SweepSpec(
            name="theorem-2",
            protocol="count-exact",
            ns=[64, 128, 256, 512],
            seeds_per_cell=5,
            backend="auto",
            budget=BudgetPolicy(factor=192.0, n_exponent=1.0, log_exponent=2.0),
            max_checks=2_000,
            description=(
                "Protocol CountExact (Theorem 2): interactions until every "
                "agent outputs exactly n; the paper predicts O(n log n)."
            ),
        ),
        SweepSpec(
            name="accuracy-grid",
            protocol="approximate",
            ns=[128, 256],
            seeds_per_cell=3,
            backend="auto",
            param_grid={"clock_modulus": [16, 40, 64]},
            budget=BudgetPolicy(factor=128.0, n_exponent=1.0, log_exponent=2.0),
            max_checks=2_000,
            description=(
                "Accuracy/failure trade-off of Protocol Approximate over the "
                "phase-clock modulus (the param_grid sweep): the calibrated "
                "modulus (~40 at these n) converges reliably and fast, while "
                "an over-long clock (64) stretches every phase and starts "
                "missing the budget — the convergence rate drops below 1."
            ),
        ),
        SweepSpec(
            name="counting-smoke",
            protocol="backup-approximate",
            ns=[64, 256],
            seeds_per_cell=2,
            backend="batch",
            budget=BudgetPolicy(factor=16.0, n_exponent=2.0, log_exponent=0.0),
            max_checks=200,
            description="Bounded CI grid exercising the sweep subsystem end to end.",
        ),
        SweepSpec(
            name="backup-profile",
            protocol="backup-exact",
            ns=[64, 128],
            seeds_per_cell=2,
            backend="batch",
            budget=BudgetPolicy(factor=16.0, n_exponent=2.0, log_exponent=0.0),
            max_checks=200,
            description=(
                "Telemetry showcase for --profile: the exact-counting "
                "protocol's churning key counts split wall time across "
                "sampling, transition application, and the pair kernel's "
                "count upkeep (pair_weights); the aggregated PROFILE "
                "artifact breaks those phases down."
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}

