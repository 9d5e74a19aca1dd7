"""Dynamic-population chaos scenarios (`repro.scenarios`).

The paper's counting protocols matter precisely because population sizes
change; this package perturbs *running* populations and measures recovery.
A declarative :class:`ScenarioSpec` (JSON round-trip) composes a registered
protocol with a timeline of events — agent churn (join/leave/replace, as
one-shot waves or Poisson arrival processes, with optional
detected-membership restarts), repeated fault campaigns (each fault a
timeline event rewriting the victims' states at one exact interaction),
and adversarial scheduler
reconfiguration (partition/merge) — and the runner executes the grid over
population sizes, parameter variants, seeds, and *both* simulation
backends, recording per-event recovery times, post-churn output accuracy
against the new true ``n``, and conservation-invariant series (the counting
stack's token sum through churn).

On top of single scenarios, :mod:`repro.scenarios.search` turns the
subsystem into a chaos *recommender*: a :class:`SearchSpec` declares which
scenario dimension to attack (churn fraction, Poisson rate, event timing,
partition blocks...) and what guarantee must hold, and the
:class:`FrontierRunner` bisects — or, in multi-dimensional campaigns,
evolves — its way to the protocol's breaking point, recording every probe's
derived seeds for exact replay.

``repro-chaos`` is the console entry point (``repro-chaos search`` for
frontier searches); ``SCENARIO_<name>.json`` / ``FRONTIER_<name>.json`` the
artifacts.

The names below load on first use (:mod:`repro.lazy`).
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "builtin": ("builtin_scenarios", "builtin_searches"),
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
    "search": (
        "DIMENSION_FIELDS",
        "GUARANTEE_KINDS",
        "SEARCH_STRATEGIES",
        "DimensionSpec",
        "FrontierRunner",
        "GuaranteeSpec",
        "SearchSpec",
        "probe_base_seed",
        "probe_scenario",
    ),
    "spec": ("EVENT_KINDS", "EventSpec", "ScenarioCell", "ScenarioSpec"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "builtin_scenarios",
    "builtin_searches",
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
    "DIMENSION_FIELDS",
    "GUARANTEE_KINDS",
    "SEARCH_STRATEGIES",
    "DimensionSpec",
    "FrontierRunner",
    "GuaranteeSpec",
    "SearchSpec",
    "probe_base_seed",
    "probe_scenario",
    "EVENT_KINDS",
    "EventSpec",
    "ScenarioCell",
    "ScenarioSpec",
]
