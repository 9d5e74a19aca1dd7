"""Benchmark runner: time both backends across protocols and sizes.

A *case* is a (protocol factory, convergence predicate, backend, n) tuple;
running one produces a :class:`BenchEntry` with wall time, interactions, and
the number of Python-level transition calls the backend actually executed —
the quantity the batch backend is designed to collapse.  Entries for the
same (protocol, n) under both backends are paired into *comparisons* whose
``transition_call_reduction`` is the headline metric.
"""

from __future__ import annotations

import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..engine.convergence import OutputPredicate, all_outputs_equal, outputs_in
from ..engine.protocol import Protocol
from ..engine.simulator import simulate
from ..obs.profile import aggregate_telemetry
from ..primitives.epidemic import OneWayEpidemic
from ..primitives.junta import JuntaProtocol
from ..primitives.load_balancing import EMPTY, PowersOfTwoLoadBalancing
from ..resume import write_report

__all__ = [
    "BenchCase",
    "BenchEntry",
    "default_cases",
    "smoke_cases",
    "run_benchmark",
    "check_smoke_budgets",
]

#: The acceptance target: batch must execute at least this many times fewer
#: Python-level transition calls than agent on the headline case.
TARGET_REDUCTION = 50.0
HEADLINE_PROTOCOL = "one-way-epidemic"
HEADLINE_N = 100_000

#: Generous per-workload wall-time budgets (seconds) for the smoke grid —
#: the CI perf canary.  Each budget is ~10-50x the current measured wall
#: time on a development machine, leaving ample headroom for slower CI
#: runners; the canary only fails a workload at *gross* regressions, i.e.
#: wall time above :data:`BUDGET_FAIL_FACTOR` times its budget.
SMOKE_BUDGETS_S: Dict[Tuple[str, str, int], float] = {
    ("one-way-epidemic", "agent", 256): 0.5,
    ("one-way-epidemic", "agent", 1_024): 1.0,
    ("one-way-epidemic", "batch", 256): 1.0,
    ("one-way-epidemic", "batch", 1_024): 1.5,
    ("one-way-epidemic", "batch", 8_192): 6.0,
    ("junta-process", "agent", 512): 0.5,
    ("junta-process", "batch", 512): 1.5,
    ("powers-of-two-load-balancing", "agent", 512): 0.5,
    ("powers-of-two-load-balancing", "batch", 512): 0.5,
}

#: A smoke workload fails the canary when its wall time exceeds this factor
#: times its committed budget.
BUDGET_FAIL_FACTOR = 5.0


@dataclass
class BenchCase:
    """One benchmark configuration.

    Attributes:
        protocol_name: Stable name used for pairing agent/batch entries.
        make_protocol: Factory building a fresh protocol for size ``n``.
        make_convergence: Factory building the convergence predicate (or
            ``None`` for budget-bound runs).
        backend: ``"agent"`` or ``"batch"``.
        n: Population size.
        max_interactions: Optional explicit interaction budget.
        repetitions: Number of seeded repetitions to average over.
    """

    protocol_name: str
    make_protocol: Callable[[int], Protocol]
    make_convergence: Optional[Callable[[int], OutputPredicate]]
    backend: str
    n: int
    max_interactions: Optional[int] = None
    repetitions: int = 1


@dataclass
class BenchEntry:
    """Result of one benchmark case (averaged over repetitions)."""

    protocol: str
    backend: str
    n: int
    repetitions: int
    interactions: float
    transition_calls: float
    wall_time_s: float
    interactions_per_second: float
    converged: bool
    stopped_reason: str


def _epidemic_case(backend: str, n: int, **kwargs: Any) -> BenchCase:
    return BenchCase(
        protocol_name="one-way-epidemic",
        make_protocol=lambda size: OneWayEpidemic(),
        make_convergence=lambda size: all_outputs_equal(1),
        backend=backend,
        n=n,
        **kwargs,
    )


def _junta_case(backend: str, n: int, **kwargs: Any) -> BenchCase:
    # Converged when every agent is inactive (output is (level, active, junta)).
    return BenchCase(
        protocol_name="junta-process",
        make_protocol=lambda size: JuntaProtocol(),
        make_convergence=lambda size: _all_inactive,
        backend=backend,
        n=n,
        **kwargs,
    )


def _all_inactive(outputs: Any) -> bool:
    from ..engine.convergence import output_items

    seen = False
    for value, _count in output_items(outputs):
        if value[1]:
            return False
        seen = True
    return seen


def _powers_of_two_case(backend: str, n: int, **kwargs: Any) -> BenchCase:
    def make_protocol(size: int) -> Protocol:
        kappa = max(0, (3 * size // 4).bit_length() - 1)
        return PowersOfTwoLoadBalancing(kappa=kappa)

    return BenchCase(
        protocol_name="powers-of-two-load-balancing",
        make_protocol=make_protocol,
        make_convergence=lambda size: outputs_in({EMPTY, 0}),
        backend=backend,
        n=n,
        **kwargs,
    )


def default_cases() -> List[BenchCase]:
    """The full benchmark grid (batch reaches ``n = 10**6`` on the epidemic)."""
    cases: List[BenchCase] = []
    for n in (1_000, 10_000, 100_000):
        cases.append(_epidemic_case("agent", n))
    for n in (1_000, 10_000, 100_000, 1_000_000):
        cases.append(_epidemic_case("batch", n))
    for n in (1_000, 10_000):
        cases.append(_junta_case("agent", n))
        cases.append(_junta_case("batch", n))
    for n in (1_000, 10_000):
        cases.append(_powers_of_two_case("agent", n))
    for n in (1_000, 10_000, 100_000):
        cases.append(_powers_of_two_case("batch", n))
    return cases


def smoke_cases() -> List[BenchCase]:
    """A quick grid (< 30 s) for CI pushes."""
    cases: List[BenchCase] = []
    for n in (256, 1_024):
        cases.append(_epidemic_case("agent", n))
    for n in (256, 1_024, 8_192):
        cases.append(_epidemic_case("batch", n))
    cases.append(_junta_case("agent", 512))
    cases.append(_junta_case("batch", 512))
    cases.append(_powers_of_two_case("agent", 512))
    cases.append(_powers_of_two_case("batch", 512))
    return cases


def run_case(
    case: BenchCase,
    base_seed: int = 0,
    telemetry_sink: Optional[List[Dict[str, Any]]] = None,
) -> BenchEntry:
    """Run one case and return its averaged entry.

    When ``telemetry_sink`` is given, every repetition's
    ``extra["telemetry"]`` dict is appended to it — the raw material the
    report's aggregated ``profile`` is folded from.
    """
    interactions = 0.0
    transition_calls = 0.0
    wall = 0.0
    converged = True
    stopped_reason = ""
    for repetition in range(case.repetitions):
        protocol = case.make_protocol(case.n)
        convergence = case.make_convergence(case.n) if case.make_convergence else None
        started = time.perf_counter()
        result = simulate(
            protocol,
            case.n,
            seed=base_seed + repetition,
            convergence=convergence,
            max_interactions=case.max_interactions,
            backend=case.backend,
        )
        wall += time.perf_counter() - started
        interactions += result.interactions
        transition_calls += result.extra["transition_calls"]
        if telemetry_sink is not None and isinstance(
            result.extra.get("telemetry"), dict
        ):
            telemetry_sink.append(result.extra["telemetry"])
        converged = converged and (result.converged or result.stopped_reason == "terminal")
        stopped_reason = result.stopped_reason
    repetitions = case.repetitions
    interactions /= repetitions
    transition_calls /= repetitions
    wall /= repetitions
    return BenchEntry(
        protocol=case.protocol_name,
        backend=case.backend,
        n=case.n,
        repetitions=repetitions,
        interactions=interactions,
        transition_calls=transition_calls,
        wall_time_s=round(wall, 4),
        interactions_per_second=round(interactions / wall, 1) if wall > 0 else 0.0,
        converged=converged,
        stopped_reason=stopped_reason,
    )


def _comparisons(entries: Iterable[BenchEntry]) -> List[Dict[str, Any]]:
    """Pair agent/batch entries of the same (protocol, n) into reductions."""
    by_key: Dict[tuple, Dict[str, BenchEntry]] = {}
    for entry in entries:
        by_key.setdefault((entry.protocol, entry.n), {})[entry.backend] = entry
    comparisons = []
    for (protocol, n), pair in sorted(by_key.items()):
        if "agent" not in pair or "batch" not in pair:
            continue
        agent, batch = pair["agent"], pair["batch"]
        reduction = (
            agent.transition_calls / batch.transition_calls
            if batch.transition_calls
            else float("inf")
        )
        speedup = agent.wall_time_s / batch.wall_time_s if batch.wall_time_s else float("inf")
        comparisons.append(
            {
                "protocol": protocol,
                "n": n,
                "agent_transition_calls": agent.transition_calls,
                "batch_transition_calls": batch.transition_calls,
                "transition_call_reduction": round(reduction, 1),
                "agent_wall_time_s": agent.wall_time_s,
                "batch_wall_time_s": batch.wall_time_s,
                "wall_time_speedup": round(speedup, 2),
            }
        )
    return comparisons


def run_benchmark(
    cases: Optional[List[BenchCase]] = None,
    base_seed: int = 0,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the benchmark grid and return the JSON-ready report."""
    if cases is None:
        cases = smoke_cases() if smoke else default_cases()
    entries: List[BenchEntry] = []
    telemetry: List[Dict[str, Any]] = []
    for case in cases:
        if progress:
            progress(f"{case.protocol_name} backend={case.backend} n={case.n} ...")
        entry = run_case(case, base_seed=base_seed, telemetry_sink=telemetry)
        entries.append(entry)
        if progress:
            progress(
                f"  {entry.interactions:.0f} interactions, "
                f"{entry.transition_calls:.0f} transition calls, "
                f"{entry.wall_time_s:.3f}s"
            )
    comparisons = _comparisons(entries)
    headline = next(
        (
            comparison
            for comparison in comparisons
            if comparison["protocol"] == HEADLINE_PROTOCOL and comparison["n"] == HEADLINE_N
        ),
        None,
    )
    report: Dict[str, Any] = {
        "benchmark": "batch_backend",
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "target_reduction": TARGET_REDUCTION,
        "headline": headline,
        "headline_met": (
            bool(headline and headline["transition_call_reduction"] >= TARGET_REDUCTION)
            if headline is not None
            else None
        ),
        "entries": [asdict(entry) for entry in entries],
        "comparisons": comparisons,
        "profile": aggregate_telemetry(telemetry),
    }
    return report


def check_smoke_budgets(
    report: Dict[str, Any],
) -> Tuple[List[Dict[str, Any]], bool]:
    """Compare a smoke report's wall times against the committed budgets.

    Returns ``(rows, ok)``: one row per entry with its budget, the
    wall/budget ratio, and a verdict; ``ok`` is ``False`` when any workload
    exceeded :data:`BUDGET_FAIL_FACTOR` times its budget (a gross
    regression).  Workloads without a committed budget are reported but
    never fail — adding a smoke case must not silently break the canary.
    The inverse drift *does* fail: a committed budget matching no entry
    means the grid was renamed or resized under the canary, which would
    otherwise silently turn it into a no-op.
    """
    rows: List[Dict[str, Any]] = []
    ok = True
    seen = set()
    for entry in report.get("entries", []):
        key = (entry["protocol"], entry["backend"], entry["n"])
        seen.add(key)
        budget = SMOKE_BUDGETS_S.get(key)
        wall = entry["wall_time_s"]
        if budget is None:
            rows.append(
                {
                    "workload": key,
                    "wall_time_s": wall,
                    "budget_s": None,
                    "ratio": None,
                    "ok": True,
                }
            )
            continue
        ratio = wall / budget if budget > 0 else float("inf")
        passed = ratio <= BUDGET_FAIL_FACTOR
        ok = ok and passed
        rows.append(
            {
                "workload": key,
                "wall_time_s": wall,
                "budget_s": budget,
                "ratio": round(ratio, 2),
                "ok": passed,
            }
        )
    for key in sorted(set(SMOKE_BUDGETS_S) - seen, key=repr):
        ok = False
        rows.append(
            {
                "workload": key,
                "wall_time_s": None,
                "budget_s": SMOKE_BUDGETS_S[key],
                "ratio": None,
                "ok": False,
                "stale": True,
            }
        )
    return rows, ok
