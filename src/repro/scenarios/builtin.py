"""Built-in chaos scenarios for the counting stack and the baselines.

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
* ``epidemic-rejoin`` sweeps the churn fraction through ``param_grid``: the
  broadcast completes, a wave of uninformed agents joins, and recovery is a
  fresh epidemic among the joiners — the robustness-curve shape is
  ``O(n log n)`` again.
* ``load-rebalance`` replaces 30% of the agents mid-balance (tokens leave
  with them; joiners arrive empty), so the token sum *drops* and the
  population must re-balance to a new mean — the token-sum invariant series
  in the artifact shows the loss explicitly.
* ``epidemic-fault-storm`` is a periodic campaign: every ``8 n log2 n``
  interactions, 5% of the agents crash-reset to uninformed; the epidemic
  re-closes after each wave.
* ``partition-heal`` isolates the broadcast source in one of two scheduler
  blocks from the start; the epidemic can only complete after the partition
  merges (agent backend, adversarial scheduler).
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

Built-in searches
-----------------
Ready-to-run :class:`~repro.scenarios.search.SearchSpec` instances for
``repro-chaos search``:

* ``epidemic-churn`` (headline): bisects the Poisson replacement *rate*
  under which a one-way broadcast can still complete.  Mean-field estimate:
  a replacement process at rate ``r`` killing a fraction ``f`` of informed
  agents removes ``r f I`` informed agents per parallel time unit while the
  epidemic adds ``I (n - I) / n``, so extinction sets in around
  ``r f ~ 1``; with ``f = 0.2`` the frontier sits near ``r ~ 4-5``, inside
  the ``[0.5, 12]`` bracket.
* ``backup-recount``: bisects the *leave fraction* of the recount-churn
  scenario with a deliberately tight post-churn budget.  The frontier is
  *decreasing*: a mild churn leaves a near-full population whose Lemma-13
  recount does not fit the leftover ``~2.5 n^2`` budget, while a severe
  churn shrinks the population enough for the recount to fit.
* ``epidemic-churn-2d``: the (mu + lambda) evolutionary variant hunting the
  mildest breaking (rate, fraction) pair of the same replacement process.
* ``search-smoke``: the headline frontier at ``n = 64``, bounded for CI.
"""

from __future__ import annotations

from typing import Dict

from ..experiments.spec import BudgetPolicy
from .search import DimensionSpec, GuaranteeSpec, SearchSpec
from .spec import EventSpec, ScenarioSpec

__all__ = ["builtin_scenarios", "builtin_searches"]


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
            name="epidemic-rejoin",
            protocol="one-way-epidemic",
            ns=[256, 1_024, 4_096],
            seeds_per_cell=3,
            backends=["batch"],
            budget=BudgetPolicy(factor=80.0, n_exponent=1.0, log_exponent=1.0),
            events=[
                EventSpec(
                    kind="join",
                    at=BudgetPolicy(factor=20.0, n_exponent=1.0, log_exponent=1.0),
                    fraction="churn_fraction",
                    label="rejoin-wave",
                )
            ],
            param_grid={"churn_fraction": [0.25, 0.5, 1.0]},
            invariants=["population"],
            description=(
                "Robustness curve over churn severity (param_grid): a wave of "
                "uninformed agents joins a completed broadcast; recovery is a "
                "fresh epidemic among the joiners."
            ),
        ),
        ScenarioSpec(
            name="load-rebalance",
            protocol="classical-load-balancing",
            ns=[256, 1_024],
            seeds_per_cell=3,
            backends=["agent", "batch"],
            budget=BudgetPolicy(factor=96.0, n_exponent=1.0, log_exponent=1.0),
            events=[
                EventSpec(
                    kind="replace",
                    at=BudgetPolicy(factor=32.0, n_exponent=1.0, log_exponent=1.0),
                    fraction=0.30,
                    label="crash-rejoin-30pct",
                )
            ],
            invariants=["population", "token-sum"],
            description=(
                "Load balancing [10] under crash-rejoin churn: 30% of the "
                "agents are replaced by empty ones, the token sum drops with "
                "the leavers, and the survivors re-balance to the new mean."
            ),
        ),
        ScenarioSpec(
            name="epidemic-fault-storm",
            protocol="one-way-epidemic",
            ns=[1_024],
            seeds_per_cell=3,
            backends=["agent", "batch"],
            budget=BudgetPolicy(factor=96.0, n_exponent=1.0, log_exponent=1.0),
            events=[
                EventSpec(
                    kind="corrupt",
                    fault="reset",
                    at=BudgetPolicy(factor=8.0, n_exponent=1.0, log_exponent=1.0),
                    every=BudgetPolicy(factor=8.0, n_exponent=1.0, log_exponent=1.0),
                    repeat=5,
                    fraction=0.05,
                    label="reset-storm",
                )
            ],
            invariants=["population"],
            description=(
                "Periodic fault campaign: every wave crash-resets 5% of the "
                "agents to uninformed; the epidemic re-closes after each wave."
            ),
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
        ScenarioSpec(
            name="partition-heal",
            protocol="one-way-epidemic",
            ns=[256],
            seeds_per_cell=3,
            backends=["agent"],
            budget=BudgetPolicy(factor=64.0, n_exponent=1.0, log_exponent=1.0),
            events=[
                EventSpec(kind="partition", at_interactions=0, blocks=2, label="split"),
                EventSpec(
                    kind="merge",
                    at=BudgetPolicy(factor=16.0, n_exponent=1.0, log_exponent=1.0),
                    label="heal",
                ),
            ],
            invariants=["population"],
            description=(
                "Adversarial scheduler: the broadcast source is isolated in "
                "one of two partition blocks, so the epidemic can only "
                "complete after the partition heals."
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


# --------------------------------------------------------------------------
# Built-in adversarial searches (repro-chaos search)
# --------------------------------------------------------------------------


def _epidemic_churn_scenario(n: int, seeds: int) -> ScenarioSpec:
    """One-cell base scenario of the epidemic-vs-replacement searches.

    A one-way broadcast runs against a Poisson replacement process: over a
    ``16 n log2 n`` window starting at ``4 n log2 n``, churn events at rate
    ``r`` (per ``n`` interactions) each replace 20% of the agents with
    uninformed ones.  The searches mutate ``r`` (and, in 2-D, the
    per-event fraction).
    """
    return ScenarioSpec(
        name="epidemic-churn-base",
        protocol="one-way-epidemic",
        ns=[n],
        seeds_per_cell=seeds,
        backends=["batch"],
        budget=BudgetPolicy(factor=26.0, n_exponent=1.0, log_exponent=1.0),
        events=[
            EventSpec(
                kind="replace",
                rate=2.0,
                fraction=0.2,
                at=BudgetPolicy(factor=4.0, n_exponent=1.0, log_exponent=1.0),
                window=BudgetPolicy(factor=16.0, n_exponent=1.0, log_exponent=1.0),
                label="replacement-storm",
            )
        ],
        invariants=["population"],
    )


def builtin_searches() -> Dict[str, SearchSpec]:
    """Construct the builtin searches (fresh instances each call)."""
    specs = [
        SearchSpec(
            name="epidemic-churn",
            scenario=_epidemic_churn_scenario(256, 3),
            dimensions=[DimensionSpec(event=0, dimension="rate", low=0.5, high=12.0)],
            guarantee=GuaranteeSpec(kind="recovered"),
            strategy="bisect",
            seeds_per_probe=3,
            tolerance=0.25,
            description=(
                "Critical churn rate of the one-way epidemic: bisect the "
                "Poisson replacement rate (20% uninformed replacements per "
                "event) until the broadcast can no longer re-close within "
                "its budget.  Mean-field estimate: extinction near "
                "rate x fraction ~ 1."
            ),
        ),
        SearchSpec(
            name="backup-recount",
            scenario=ScenarioSpec(
                name="backup-recount-base",
                protocol="backup-exact",
                ns=[192],
                seeds_per_cell=3,
                backends=["batch"],
                budget=BudgetPolicy(factor=4.45, n_exponent=2.0, log_exponent=0.0),
                events=[
                    EventSpec(
                        kind="leave",
                        at=BudgetPolicy(factor=4.0, n_exponent=2.0, log_exponent=0.0),
                        fraction=0.3,
                        restart=True,
                        label="churn",
                    )
                ],
                invariants=["population", "token-sum"],
            ),
            dimensions=[
                DimensionSpec(event=0, dimension="fraction", low=0.05, high=0.7)
            ],
            guarantee=GuaranteeSpec(kind="recovered"),
            strategy="bisect",
            seeds_per_probe=3,
            tolerance=0.02,
            description=(
                "Minimal survivable churn of the exact backup counter: after "
                "a leave-and-restart at 4 n^2, the Lemma-13 recount of the "
                "(1 - f) n survivors must fit the leftover ~0.45 n^2 budget.  "
                "The frontier is decreasing: mild churn breaks (too many "
                "agents to recount), severe churn survives."
            ),
        ),
        SearchSpec(
            name="epidemic-churn-2d",
            scenario=_epidemic_churn_scenario(128, 2),
            dimensions=[
                DimensionSpec(event=0, dimension="rate", low=0.5, high=12.0),
                DimensionSpec(event=0, dimension="fraction", low=0.05, high=0.5),
            ],
            guarantee=GuaranteeSpec(kind="recovered"),
            strategy="evolve",
            seeds_per_probe=2,
            max_probes=64,
            population=4,
            offspring=6,
            generations=4,
            description=(
                "Two-dimensional hunt for the mildest breaking "
                "(rate, fraction) pair of the replacement process: the "
                "(mu + lambda) strategy minimises severity among broken "
                "probes, mapping the rate x fraction ~ 1 extinction curve."
            ),
        ),
        SearchSpec(
            name="search-smoke",
            scenario=_epidemic_churn_scenario(64, 2),
            dimensions=[DimensionSpec(event=0, dimension="rate", low=0.5, high=12.0)],
            guarantee=GuaranteeSpec(kind="recovered"),
            strategy="bisect",
            seeds_per_probe=2,
            tolerance=1.0,
            probe_timeout_s=120.0,
            description="Bounded CI frontier: the headline search at n = 64.",
        ),
    ]
    return {spec.name: spec for spec in specs}

