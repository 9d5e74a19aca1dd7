"""Auxiliary population protocols (Section 2 of the paper).

These are the building blocks the counting protocols are assembled from:
one-way epidemics (broadcast), the junta process, junta-driven phase clocks,
synthetic coins, slow and fast leader election, and the two load-balancing
processes.  Each module exposes both an in-place *component update* (used by
the composed protocols in :mod:`repro.counting`) and a standalone
:class:`~repro.engine.Protocol` so the primitive can be measured in isolation
(experiments E4–E8).

The names below load on first use (:mod:`repro.lazy`): a protocol imports
only the primitives it is assembled from.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "epidemic": ("EpidemicState", "MaximumBroadcast", "OneWayEpidemic", "epidemic_update"),
    "fast_leader_election": (
        "FastLeaderElectionAgent",
        "FastLeaderElectionProtocol",
        "FastLeaderElectionState",
        "fast_leader_election_update",
    ),
    "junta": (
        "JuntaProtocol",
        "JuntaState",
        "junta_summary",
        "junta_update",
        "junta_update_pair",
    ),
    "leader_election": (
        "LeaderElectionAgent",
        "LeaderElectionProtocol",
        "LeaderElectionState",
        "leader_election_update",
    ),
    "load_balancing": (
        "EMPTY",
        "ClassicalLoadBalancing",
        "ClassicalLoadState",
        "PowersOfTwoLoadBalancing",
        "PowersOfTwoState",
        "balance_powers_of_two",
        "discrepancy",
        "load_from_log",
        "split_evenly",
        "total_load_from_logs",
    ),
    "params": (
        "FastLeaderElectionParameters",
        "LeaderElectionParameters",
        "level_scaled",
    ),
    "phase_clock": (
        "DEFAULT_CLOCK_MODULUS",
        "JuntaPhaseClockProtocol",
        "JuntaPhaseClockState",
        "PhaseClockState",
        "phase_clock_update",
    ),
    "synthetic_coin": ("ParityCoinProtocol", "ParityCoinState", "flip", "flip_bits"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "EpidemicState",
    "MaximumBroadcast",
    "OneWayEpidemic",
    "epidemic_update",
    "FastLeaderElectionAgent",
    "FastLeaderElectionProtocol",
    "FastLeaderElectionState",
    "fast_leader_election_update",
    "JuntaProtocol",
    "JuntaState",
    "junta_summary",
    "junta_update",
    "junta_update_pair",
    "LeaderElectionAgent",
    "LeaderElectionProtocol",
    "LeaderElectionState",
    "leader_election_update",
    "EMPTY",
    "ClassicalLoadBalancing",
    "ClassicalLoadState",
    "PowersOfTwoLoadBalancing",
    "PowersOfTwoState",
    "balance_powers_of_two",
    "discrepancy",
    "load_from_log",
    "split_evenly",
    "total_load_from_logs",
    "FastLeaderElectionParameters",
    "LeaderElectionParameters",
    "level_scaled",
    "DEFAULT_CLOCK_MODULUS",
    "JuntaPhaseClockProtocol",
    "JuntaPhaseClockState",
    "PhaseClockState",
    "phase_clock_update",
    "ParityCoinProtocol",
    "ParityCoinState",
    "flip",
    "flip_bits",
]
