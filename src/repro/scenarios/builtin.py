"""Built-in chaos scenarios for the counting stack.

Each builtin is a ready-to-run :class:`~repro.scenarios.spec.ScenarioSpec`;
``repro-chaos --builtin NAME`` executes one, ``--list`` enumerates them, and
``--dump-spec`` prints any of them as a JSON starting point.

Calibration notes
-----------------
* ``recount-churn`` is the headline: the exact backup counter (Appendix
  C.2) runs to its Lemma-13 stabilisation (empirically ``~1.3 n^2``
  interactions), then 10% of the agents leave *with their tokens* and the
  survivors restart — the detected-membership-change model — and the
  scenario measures the time to re-count the new true ``n``, on both
  backends side by side.  The committed ``SCENARIO_recount-churn.json``
  artifact at ``n = 10^3`` is the repository's churn-recovery acceptance
  record.
* ``stable-detect`` drives the stable hybrid (Algorithm 7 / Appendix B)
  through churn + restart and a mid-election clock-phase storm, tracking the
  ``error-flags`` invariant: the detection layer must actually raise, the
  error epidemic must carry the flag population-wide, and the run must
  still converge — via the always-correct backup.  Timing notes: the storm
  lands at ``3 n log2^2 n``, *after* the junta levels settle (earlier
  corruption is healed by re-initialisation) but well before the detection
  stage freezes the clocks (later corruption hits frozen clocks and is
  inert); the final 1-agent ``leave`` exists purely to keep the run alive
  past backup-path convergence until the drift errors have had their
  ``~15 n^2`` interactions to emerge.  Detection remains seed-stochastic
  (a storm can be absorbed when every victim happens to re-initialise);
  the committed ``base_seed = 1`` triggers in 13/16 grid runs.
* ``recount-smoke`` is the CI grid: the headline shape at ``n = 64``.
"""

from __future__ import annotations

from typing import Dict

from ..experiments.spec import BudgetPolicy
from .spec import EventSpec, ScenarioSpec

__all__ = ["builtin_scenarios"]


def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """Construct the builtin scenarios (fresh instances each call)."""
    specs = [
        ScenarioSpec(
            name="recount-churn",
            protocol="backup-exact",
            ns=[1_000],
            seeds_per_cell=2,
            backends=["agent", "batch"],
            budget=BudgetPolicy(factor=12.0, n_exponent=2.0, log_exponent=0.0),
            events=[
                EventSpec(
                    kind="leave",
                    at=BudgetPolicy(factor=4.0, n_exponent=2.0, log_exponent=0.0),
                    fraction=0.10,
                    restart=True,
                    label="churn-10pct",
                )
            ],
            invariants=["population", "token-sum"],
            max_checks=400,
            description=(
                "Exact counting (Appendix C.2) under churn: converge to n, "
                "lose 10% of the agents (and their tokens), restart the "
                "survivors, and measure the time to re-count the new true n "
                "— on both backends."
            ),
        ),
        ScenarioSpec(
            name="recount-smoke",
            protocol="backup-exact",
            ns=[64],
            seeds_per_cell=2,
            backends=["agent", "batch"],
            budget=BudgetPolicy(factor=16.0, n_exponent=2.0, log_exponent=0.0),
            events=[
                EventSpec(
                    kind="leave",
                    at=BudgetPolicy(factor=5.0, n_exponent=2.0, log_exponent=0.0),
                    fraction=0.25,
                    restart=True,
                    label="churn-25pct",
                )
            ],
            invariants=["population", "token-sum"],
            max_checks=400,
            description="Bounded CI grid exercising the scenario subsystem end to end.",
        ),
        ScenarioSpec(
            name="stable-detect",
            protocol="approximate-stable",
            ns=[64, 96],
            seeds_per_cell=4,
            base_seed=1,
            backends=["agent", "batch"],
            budget=BudgetPolicy(factor=26.0, n_exponent=2.0, log_exponent=0.0),
            events=[
                EventSpec(
                    kind="join",
                    at=BudgetPolicy(factor=1.0, n_exponent=1.0, log_exponent=2.0),
                    fraction=0.25,
                    restart=True,
                    label="churn-restart",
                ),
                EventSpec(
                    kind="corrupt",
                    fault="clock-phase-corruption",
                    at=BudgetPolicy(factor=3.0, n_exponent=1.0, log_exponent=2.0),
                    fraction=0.3,
                    label="clock-storm",
                ),
                EventSpec(
                    kind="leave",
                    at=BudgetPolicy(factor=20.0, n_exponent=2.0, log_exponent=0.0),
                    count=1,
                    label="keep-alive",
                ),
            ],
            invariants=["population", "error-flags"],
            description=(
                "The stable hybrid under churn + restart + a mid-election "
                "clock-phase storm: the error-flags series proves the "
                "detection layer fires (0 at the storm, population-wide at "
                "the end) while the backup still converges the run."
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}

