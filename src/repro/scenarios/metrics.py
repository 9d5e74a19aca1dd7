"""Recovery metrics and conservation invariants for chaos scenarios.

Two measurement layers:

* **Invariants** — named quantities computed from the configuration
  histogram at every event boundary (run start, after each event, run end).
  The headline one is the counting stack's token conservation: churn *must*
  move the token sum (agents leave with their tokens) and a restart must
  re-establish ``Σ = n`` at the new size; a clone fault breaks conservation
  outright.  Tracking the series through a timeline is how a scenario proves
  the backends' histogram surgery is bookkeeping-exact.

* **Recovery statistics** — per-cell reductions of the engine's per-segment
  records: whether runs reconverged after the final disturbance, how many
  interactions the recovery took (absolute and in parallel time at the
  *new* population size), and the post-churn output accuracy against the
  new true ``n``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..counting.backup import ApproximateBackupProtocol, ExactBackupProtocol
from ..counting.stable_approximate import StableApproximateProtocol
from ..counting.stable_count_exact import StableCountExactProtocol
from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol
from ..experiments.aggregate import fit_power_law, sample_stats
from ..primitives.load_balancing import (
    ClassicalLoadBalancing,
    PowersOfTwoLoadBalancing,
    load_from_log,
)

__all__ = [
    "InvariantSpec",
    "INVARIANTS",
    "resolve_invariant",
    "invariant_names",
    "scenario_cell_stats",
    "scenario_fits",
]


@dataclass(frozen=True)
class InvariantSpec:
    """A named conserved (or deliberately non-conserved) quantity.

    Attributes:
        name: Registry key used by scenario specs.
        summary: One line shown by ``repro-chaos --list``.
        compute: Callable ``(protocol, key_counts) -> value`` over the
            configuration histogram.
    """

    name: str
    summary: str
    compute: Callable[[Protocol, Counter], Any]


def _population(protocol: Protocol, counts: Counter) -> int:
    return sum(counts.values())


def _token_sum(protocol: Protocol, counts: Counter) -> int:
    """Total tokens in the configuration, per the protocol's token encoding.

    For the exact backup protocol only *uncounted* agents hold real tokens
    (their ``count`` field); counted agents carry pure broadcast state.  The
    approximate backup's piles hold ``2^k`` tokens (``k = -1`` is empty).
    The load-balancing processes store tokens directly (or their log).
    """
    if isinstance(protocol, ExactBackupProtocol):
        return sum(
            count * multiplicity
            for (counted, count, _instance), multiplicity in counts.items()
            if not counted
        )
    if isinstance(protocol, ApproximateBackupProtocol):
        return sum(
            (1 << k) * multiplicity
            for (k, _k_max, _instance), multiplicity in counts.items()
            if k >= 0
        )
    if isinstance(protocol, ClassicalLoadBalancing):
        return sum(load * multiplicity for load, multiplicity in counts.items())
    if isinstance(protocol, PowersOfTwoLoadBalancing):
        return sum(
            load_from_log(k) * multiplicity for k, multiplicity in counts.items()
        )
    raise ConfigurationError(
        f"no token-sum invariant is defined for protocol {protocol.name!r}"
    )


def _error_flags(protocol: Protocol, counts: Counter) -> int:
    """Agents whose error-detection flag is raised (stable hybrids only).

    Both stable hybrids end their state key with the boolean error flag, so
    the count is a direct histogram reduction.  In a chaos timeline this
    series is how a scenario *asserts the detection layer fired*: it must be
    zero at the start and strictly positive after a disturbance that
    invalidates the fast path (the error epidemic then carries it to ``n``).
    """
    if not isinstance(protocol, (StableApproximateProtocol, StableCountExactProtocol)):
        raise ConfigurationError(
            f"the error-flags invariant needs a stable hybrid protocol "
            f"(approximate-stable / count-exact-stable); got {protocol.name!r}"
        )
    return sum(
        multiplicity for key, multiplicity in counts.items() if key[-1]
    )


INVARIANTS: Dict[str, InvariantSpec] = {
    spec.name: spec
    for spec in (
        InvariantSpec(
            "population",
            "total agent count in the histogram (checks backend bookkeeping)",
            _population,
        ),
        InvariantSpec(
            "token-sum",
            "total tokens (backup counting / load balancing protocols)",
            _token_sum,
        ),
        InvariantSpec(
            "error-flags",
            "agents with a raised error-detection flag (stable hybrids)",
            _error_flags,
        ),
    )
}


def resolve_invariant(name: str) -> InvariantSpec:
    """Look up an invariant, with a helpful error for unknown names."""
    try:
        return INVARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(INVARIANTS))
        raise ConfigurationError(
            f"unknown invariant {name!r}; registered invariants: {known}"
        ) from None


def invariant_names() -> List[str]:
    """Registered invariant names."""
    return list(INVARIANTS)


# --------------------------------------------------------------------------
# Per-cell recovery statistics
# --------------------------------------------------------------------------


def _final_segment(run: Dict[str, Any]) -> Dict[str, Any]:
    segments = (run.get("extra") or {}).get("segments") or []
    return segments[-1] if segments else {}


def scenario_cell_stats(n: int, runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce one scenario cell's run records to recovery statistics.

    ``runs`` are the runner's augmented
    :meth:`~repro.engine.simulator.SimulationResult.as_json_dict` records.
    A run counts as *recovered* only when its final segment was opened by a
    timeline event that actually fired AND converged — a run whose events
    all landed beyond the budget never experienced a disturbance, so its
    convergence proves nothing about recovery; such runs are surfaced in
    ``undisturbed_runs`` instead of inflating the rate.  The
    ``converged_runs`` / ``convergence_rate`` / ``convergence_interactions``
    aliases keep the shared sweep progress line and CSV tooling working on
    scenario cells.
    """
    recovered = 0
    undisturbed = 0
    recovery: List[float] = []
    recovery_parallel: List[float] = []
    accuracy: List[float] = []
    reasons: Dict[str, int] = {}
    for run in runs:
        final = _final_segment(run)
        if final.get("opened_by") is None:
            undisturbed += 1
        elif final.get("converged"):
            recovered += 1
        value = final.get("recovery_interactions")
        if value is not None:
            recovery.append(value)
            final_n = final.get("n") or run.get("n") or n
            recovery_parallel.append(value / final_n)
        if run.get("post_accuracy") is not None:
            accuracy.append(run["post_accuracy"])
        reason = str(run.get("stopped_reason"))
        reasons[reason] = reasons.get(reason, 0) + 1
    rate = recovered / len(runs) if runs else 0.0
    return {
        "runs": len(runs),
        "recovered_runs": recovered,
        "undisturbed_runs": undisturbed,
        "recovery_rate": rate,
        "recovery_interactions": sample_stats(recovery),
        "recovery_parallel_time": sample_stats(recovery_parallel),
        "post_accuracy": sample_stats(accuracy),
        "final_n": sample_stats(run.get("n") for run in runs),
        "wall_time_s": sample_stats(run["wall_time_s"] for run in runs),
        "stopped_reasons": reasons,
        # Aliases for the shared sweep-runner progress/CSV plumbing.
        "converged_runs": recovered,
        "convergence_rate": rate,
        "convergence_interactions": sample_stats(recovery),
    }


def scenario_fits(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fit recovery-time scaling across a scenario grid, per backend.

    Robustness curves: mean interactions-to-reconvergence after the final
    disturbance versus the initial population size, one fit per backend so
    agent/batch cells of the same scenario can be compared directly.
    """
    by_backend: Dict[str, List] = {}
    for cell in cells:
        if cell.get("error"):
            continue
        stats = cell.get("stats") or {}
        summary = stats.get("recovery_interactions")
        if summary:
            by_backend.setdefault(cell.get("backend", "?"), []).append(
                (cell["n"], summary["mean"])
            )
    return {
        "recovery_interactions": {
            backend: fit_power_law(points) for backend, points in by_backend.items()
        }
    }
