"""Protocol registry for the experiment-sweep subsystem.

Sweep specifications are *declarative* (JSON round-trippable), so protocols
are referenced by name rather than by object.  The registry maps each name to
a builder ``(n, params) -> Protocol`` plus a convergence-predicate factory —
both module-level and picklable-by-name, which is what makes sweep cells
executable in freshly spawned ``multiprocessing`` workers.

The convergence predicates may use ``n``: they are *measurement* apparatus
(the paper's acceptance criteria, e.g. "every output is ``floor(log2 n)`` or
``ceil(log2 n)``"), not part of any transition function, so uniformity is
untouched.

Each builder imports its protocol's module when it runs, so resolving one
protocol loads that protocol's stack only (``backup-exact`` never imports
the composed counting protocols).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..engine.convergence import (
    OutputPredicate,
    all_outputs_equal,
    output_items,
    outputs_in,
    outputs_within_spread,
)
from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol

__all__ = ["ProtocolEntry", "PROTOCOLS", "resolve_protocol", "protocol_names"]


def _clock_modulus(n: int, params: Dict[str, Any]) -> int:
    """Resolve the ``clock_modulus`` parameter (``"auto"`` = calibrated)."""
    modulus = params.get("clock_modulus", "auto")
    if modulus == "auto":
        from ..counting.params import recommended_clock_modulus

        return recommended_clock_modulus(n)
    return int(modulus)


def _build_approximate(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.approximate import ApproximateProtocol
    from ..counting.params import ApproximateParameters

    return ApproximateProtocol(ApproximateParameters(clock_modulus=_clock_modulus(n, params)))


def _build_approximate_stable(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.params import ApproximateParameters
    from ..counting.stable_approximate import StableApproximateProtocol

    return StableApproximateProtocol(
        ApproximateParameters(clock_modulus=_clock_modulus(n, params)),
        relaxed_output=bool(params.get("relaxed_output", False)),
    )


def _build_count_exact(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.count_exact import CountExactProtocol
    from ..counting.params import CountExactParameters

    return CountExactProtocol(CountExactParameters(clock_modulus=_clock_modulus(n, params)))


def _build_count_exact_stable(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.params import CountExactParameters
    from ..counting.stable_count_exact import StableCountExactProtocol

    return StableCountExactProtocol(
        CountExactParameters(clock_modulus=_clock_modulus(n, params))
    )


def _build_backup_approximate(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.backup import ApproximateBackupProtocol

    return ApproximateBackupProtocol()


def _build_backup_exact(n: int, params: Dict[str, Any]) -> Protocol:
    from ..counting.backup import ExactBackupProtocol

    return ExactBackupProtocol()


def _build_epidemic(n: int, params: Dict[str, Any]) -> Protocol:
    from ..primitives.epidemic import OneWayEpidemic

    return OneWayEpidemic(
        source_count=int(params.get("source_count", 1)),
        source_value=int(params.get("source_value", 1)),
    )


def _build_junta(n: int, params: Dict[str, Any]) -> Protocol:
    from ..primitives.junta import JuntaProtocol

    return JuntaProtocol()


def _build_load_balancing(n: int, params: Dict[str, Any]) -> Protocol:
    from ..primitives.load_balancing import ClassicalLoadBalancing

    # The input configuration is a single pile of ``tokens_per_agent * n``
    # tokens on one agent — the hardest instance of [10], and the one whose
    # recovery after churn the scenario subsystem measures.
    tokens = int(params.get("tokens_per_agent", 4))
    if tokens < 1:
        raise ConfigurationError("tokens_per_agent must be at least 1")
    return ClassicalLoadBalancing([tokens * n])


def _log_targets(n: int, params: Dict[str, Any]) -> OutputPredicate:
    from ..counting.approximate import log_estimate_targets

    return outputs_in(log_estimate_targets(n))


def _exact_n(n: int, params: Dict[str, Any]) -> OutputPredicate:
    return all_outputs_equal(n)


def _floor_log(n: int, params: Dict[str, Any]) -> OutputPredicate:
    return all_outputs_equal(int(math.floor(math.log2(n))))


def _epidemic_consensus(n: int, params: Dict[str, Any]) -> OutputPredicate:
    return all_outputs_equal(int(params.get("source_value", 1)))


def _balanced(n: int, params: Dict[str, Any]) -> OutputPredicate:
    # [10]: the discrepancy drops to O(1); floor/ceil of the mean coexist, so
    # a spread of 1 is the exact stable acceptance condition.
    return outputs_within_spread(int(params.get("max_discrepancy", 1)))


def _all_inactive(n: int, params: Dict[str, Any]) -> OutputPredicate:
    def predicate(outputs: Any) -> bool:
        seen = False
        for value, _count in output_items(outputs):
            if value[1]:
                return False
            seen = True
        return seen

    predicate.__name__ = "all_inactive"
    return predicate


@dataclass(frozen=True)
class ProtocolEntry:
    """A named, sweep-runnable protocol.

    Attributes:
        name: Registry key, used in sweep specs and artifact names.
        build: Factory ``(n, params) -> Protocol``.
        convergence: Factory for the paper's acceptance predicate at size
            ``n``, or ``None`` for budget-bound protocols.
        summary: One line shown by ``repro-sweep --list``.
        counting: Whether the protocol belongs to the paper's counting stack
            (the subject of the Theorem-1/2 scaling claims).
    """

    name: str
    build: Callable[[int, Dict[str, Any]], Protocol]
    convergence: Optional[Callable[[int, Dict[str, Any]], OutputPredicate]]
    summary: str
    counting: bool = False


PROTOCOLS: Dict[str, ProtocolEntry] = {
    entry.name: entry
    for entry in (
        ProtocolEntry(
            "approximate",
            _build_approximate,
            _log_targets,
            "Theorem 1(1): log2(n) +- 1 in O(n log^2 n) interactions",
            counting=True,
        ),
        ProtocolEntry(
            "approximate-stable",
            _build_approximate_stable,
            _log_targets,
            "Theorem 1(2-3): stable hybrid of Approximate with backup fallback",
            counting=True,
        ),
        ProtocolEntry(
            "count-exact",
            _build_count_exact,
            _exact_n,
            "Theorem 2: exact n in O(n log n) interactions",
            counting=True,
        ),
        ProtocolEntry(
            "count-exact-stable",
            _build_count_exact_stable,
            _exact_n,
            "Theorem 2 / Appendix F: stable hybrid of CountExact",
            counting=True,
        ),
        ProtocolEntry(
            "backup-approximate",
            _build_backup_approximate,
            _floor_log,
            "Appendix C.1 (Lemma 12): floor(log2 n) via pile merging, Õ(n^2)",
            counting=True,
        ),
        ProtocolEntry(
            "backup-exact",
            _build_backup_exact,
            _exact_n,
            "Appendix C.2 (Lemma 13): exact n via token absorption, Õ(n^2)",
            counting=True,
        ),
        ProtocolEntry(
            "one-way-epidemic",
            _build_epidemic,
            _epidemic_consensus,
            "Lemma 3 baseline: broadcast completes in O(n log n) interactions",
        ),
        ProtocolEntry(
            "junta-process",
            _build_junta,
            _all_inactive,
            "Lemma 4 baseline: junta election stabilises in O(n log n)",
        ),
        ProtocolEntry(
            "classical-load-balancing",
            _build_load_balancing,
            _balanced,
            "[10] baseline: single pile spreads to discrepancy <= 1 in O(n log n)",
        ),
    )
}


def protocol_names() -> List[str]:
    """Registry keys in declaration order."""
    return list(PROTOCOLS)


def resolve_protocol(name: str) -> ProtocolEntry:
    """Look up a registry entry, with a helpful error for unknown names."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered protocols: {known}"
        ) from None
