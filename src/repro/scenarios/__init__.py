"""Dynamic-population chaos scenarios (`repro.scenarios`).

The paper's counting protocols matter precisely because population sizes
change; this package perturbs *running* populations and measures recovery.
A declarative :class:`ScenarioSpec` (JSON round-trip) composes a registered
protocol with a timeline of events — agent churn (join/leave/replace, with
optional detected-membership restarts) and repeated fault campaigns (each
fault a timeline event rewriting the victims' states at one exact
interaction) — and the runner executes the grid over population sizes,
parameter variants, seeds, and *both* simulation backends, recording
per-event recovery times, post-churn output accuracy against the new true
``n``, and conservation-invariant series (the counting stack's token sum
through churn).

``repro-chaos`` is the console entry point; ``SCENARIO_<name>.json`` the
artifact.

The names below load on first use (:mod:`repro.lazy`).
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "builtin": ("builtin_scenarios",),
    "events": ("expand_events", "resolve_fraction"),
    "faults": ("FAULTS", "FaultModel", "fault_names", "register_fault", "resolve_fault"),
    "metrics": (
        "INVARIANTS",
        "InvariantSpec",
        "invariant_names",
        "resolve_invariant",
        "scenario_cell_stats",
        "scenario_fits",
    ),
    "runner": ("InvariantTracker", "ScenarioRunner", "execute_scenario_cell"),
    "spec": ("EVENT_KINDS", "EventSpec", "ScenarioCell", "ScenarioSpec"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "builtin_scenarios",
    "expand_events",
    "resolve_fraction",
    "FAULTS",
    "FaultModel",
    "fault_names",
    "register_fault",
    "resolve_fault",
    "INVARIANTS",
    "InvariantSpec",
    "invariant_names",
    "resolve_invariant",
    "scenario_cell_stats",
    "scenario_fits",
    "InvariantTracker",
    "ScenarioRunner",
    "execute_scenario_cell",
    "EVENT_KINDS",
    "EventSpec",
    "ScenarioCell",
    "ScenarioSpec",
]
