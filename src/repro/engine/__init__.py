"""Population-protocol simulation engine (the substrate of this reproduction).

The engine implements the probabilistic population model of Angluin et al.
exactly as the paper assumes it (Section 1.1): ``n`` anonymous agents, a
uniformly random ordered pair interacting at each discrete step, a common
transition function, and per-agent output functions.  Everything else in the
library — the auxiliary protocols of Section 2, the counting protocols of
Sections 3–4, the baselines and the experiment harness — is built on top of
these primitives.
"""

from .backends import (
    AgentBackend,
    Backend,
    BatchBackend,
    LiftedKeyTransitions,
)
from .samplers import WeightedSampler
from .vectorized import FactorisedPairKernel
from .convergence import (
    ConvergenceTracker,
    accuracy_fraction,
    all_outputs_equal,
    all_outputs_satisfy,
    fraction_outputs_satisfy,
    output_items,
    outputs_in,
    outputs_within_spread,
    total_outputs,
)
from .errors import (
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    ReproError,
    SimulationError,
    UniformityError,
)
from .hooks import CallbackHook, FailureInjectionHook, Hook, TimelineEvent
from .metrics import (
    AggregateInteractionCounter,
    InteractionCounter,
    MetricsSnapshot,
    StateSpaceTracker,
)
from .protocol import Protocol, generic_state_key
from .recorder import OutputTraceRecorder, StateHistogramRecorder
from .rng import derive_seed, make_rng, mix_seed, spawn_rngs, spawn_seeds
from .scheduler import (
    BiasedScheduler,
    PartitionedScheduler,
    RoundRobinScheduler,
    Scheduler,
    SequenceScheduler,
    UniformRandomScheduler,
)
from .simulator import (
    SimulationResult,
    Simulator,
    default_interaction_budget,
    json_value,
    simulate,
)
from .stats import (
    chi_square_gof,
    chi_square_pvalue,
    chi_square_statistic,
    ks_pvalue,
    ks_statistic,
)

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
    "FailureInjectionHook",
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
    "BiasedScheduler",
    "PartitionedScheduler",
    "RoundRobinScheduler",
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
