"""Population-protocol simulation engine (the substrate of this reproduction).

The engine implements the probabilistic population model of Angluin et al.
exactly as the paper assumes it (Section 1.1): ``n`` anonymous agents, a
uniformly random ordered pair interacting at each discrete step, a common
transition function, and per-agent output functions.  Everything else in the
library — the auxiliary protocols of Section 2, the counting protocols of
Sections 3–4, the baselines and the experiment harness — is built on top of
these primitives.

The names below load on first use: importing the package imports none of
its submodules, and reading a name imports only the submodule defining it
(:mod:`repro.lazy`).
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "backends": ("AgentBackend", "Backend", "BatchBackend", "LiftedKeyTransitions"),
    "samplers": ("WeightedSampler",),
    "vectorized": ("FactorisedPairKernel",),
    "convergence": (
        "ConvergenceTracker",
        "accuracy_fraction",
        "all_outputs_equal",
        "all_outputs_satisfy",
        "fraction_outputs_satisfy",
        "output_items",
        "outputs_in",
        "outputs_within_spread",
        "total_outputs",
    ),
    "errors": (
        "ConfigurationError",
        "ExperimentError",
        "ProtocolError",
        "ReproError",
        "SimulationError",
        "UniformityError",
    ),
    "hooks": ("CallbackHook", "Hook", "TimelineEvent"),
    "metrics": (
        "AggregateInteractionCounter",
        "InteractionCounter",
        "MetricsSnapshot",
        "StateSpaceTracker",
    ),
    "protocol": ("Protocol", "generic_state_key"),
    "recorder": ("OutputTraceRecorder", "StateHistogramRecorder"),
    "rng": ("derive_seed", "make_rng", "mix_seed", "spawn_rngs", "spawn_seeds"),
    "scheduler": (
        "Scheduler",
        "SequenceScheduler",
        "UniformRandomScheduler",
    ),
    "simulator": (
        "SimulationResult",
        "Simulator",
        "default_interaction_budget",
        "json_value",
        "simulate",
    ),
    "stats": (
        "chi_square_gof",
        "chi_square_pvalue",
        "chi_square_statistic",
        "ks_pvalue",
        "ks_statistic",
    ),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AgentBackend",
    "Backend",
    "BatchBackend",
    "LiftedKeyTransitions",
    "WeightedSampler",
    "FactorisedPairKernel",
    "ConvergenceTracker",
    "accuracy_fraction",
    "all_outputs_equal",
    "all_outputs_satisfy",
    "fraction_outputs_satisfy",
    "output_items",
    "outputs_in",
    "outputs_within_spread",
    "total_outputs",
    "ConfigurationError",
    "ExperimentError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "UniformityError",
    "CallbackHook",
    "Hook",
    "TimelineEvent",
    "AggregateInteractionCounter",
    "InteractionCounter",
    "MetricsSnapshot",
    "StateSpaceTracker",
    "Protocol",
    "generic_state_key",
    "OutputTraceRecorder",
    "StateHistogramRecorder",
    "derive_seed",
    "make_rng",
    "mix_seed",
    "spawn_rngs",
    "spawn_seeds",
    "Scheduler",
    "SequenceScheduler",
    "UniformRandomScheduler",
    "SimulationResult",
    "Simulator",
    "default_interaction_budget",
    "json_value",
    "simulate",
    "chi_square_gof",
    "chi_square_pvalue",
    "chi_square_statistic",
    "ks_pvalue",
    "ks_statistic",
]
