"""The population-protocol simulator.

:class:`Simulator` executes the probabilistic population model: at each time
step an ordered pair of distinct agents is drawn (by default uniformly at
random) and the protocol's transition function is applied.  The simulator
tracks interaction counts, observed state-space size, and convergence of a
user-supplied output predicate, and reports everything in a
:class:`SimulationResult`.

Execution is delegated to a pluggable *backend*
(:mod:`repro.engine.backends`): the per-agent reference backend runs one
Python-level transition per interaction, while the batch backend operates on
the configuration histogram and samples batches of interactions at once —
the representation that makes runs at ``n >= 10**6`` tractable.

A convenience function :func:`simulate` covers the common one-shot case.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .backends import BACKEND_NAMES, AgentBackend, Backend, BatchBackend
from .convergence import ConvergenceTracker, OutputPredicate
from .errors import ConfigurationError, SimulationError, UniformityError
from .hooks import Hook, TimelineEvent
from .metrics import InteractionCounter, StateSpaceTracker
from .protocol import Protocol
from .rng import SeedLike, make_rng
from .scheduler import Scheduler, UniformRandomScheduler

__all__ = [
    "SimulationResult",
    "Simulator",
    "simulate",
    "default_interaction_budget",
    "json_value",
]


def json_value(value: Any) -> Any:
    """Return a JSON-serialisable stand-in for an arbitrary result value.

    Scalars pass through; mappings and sequences are converted recursively;
    anything else (tuples of state-key fragments, protocol objects, …) falls
    back to its stable ``repr``.  Used by the result serialisation hooks so
    experiment artifacts never fail on exotic output values.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(json_value(key)): json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(item) for item in value]
    return repr(value)

#: Above this population size the batch backend omits the expanded per-agent
#: ``outputs`` list from results (the histogram is always present).
OUTPUT_LIST_LIMIT = 1 << 17


def default_interaction_budget(n: int, factor: float = 64.0, exponent: float = 2.0) -> int:
    """Return a generous default interaction budget of ``factor * n * log2(n)^exponent``.

    Protocol `Approximate` converges in ``O(n log^2 n)`` interactions, so the
    default budget (with ``exponent=2``) comfortably covers both of the
    paper's fast protocols at simulation scales.
    """
    if n < 2:
        raise ConfigurationError("population size must be at least 2")
    return int(factor * n * max(1.0, math.log2(n)) ** exponent)


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        protocol_name: Name of the protocol that was run.
        n: Population size.
        seed: Seed the run was started with.  Integer seeds are stored
            as-is; any other seed value is stored as its stable ``repr``.
        interactions: Total number of interactions executed.
        converged: Whether the convergence predicate held at the final
            checkpoint (and therefore from :attr:`convergence_interaction` on).
        convergence_interaction: First interaction of the final satisfied
            streak of convergence checks, or ``None`` if never satisfied.
        stopped_reason: Why the run ended (``"converged"``, ``"budget"``,
            ``"converged-at-budget"``, ``"terminal"``).
        outputs: Final per-agent outputs.  The batch backend synthesises
            this list from the histogram (its order is arbitrary) and omits
            it entirely above ``OUTPUT_LIST_LIMIT`` agents, in which case
            ``extra["outputs_omitted"]`` is set.
        output_counts: Histogram of final outputs.
        distinct_states: Number of distinct state keys observed.
        state_space: Detailed state-space summary (per-field ranges).
        min_participation: Minimum number of interactions any agent took part
            in (0 under the batch backend, which does not track identities;
            see ``extra["participation_tracked"]``).
        wall_time_s: Wall-clock duration of the run in seconds.
        extra: Free-form protocol- or experiment-specific data.  Always
            includes ``backend``, ``transition_calls``, ``convergence_checks``
            and ``satisfied_checks``.
    """

    protocol_name: str
    n: int
    seed: Optional[Union[int, str]]
    interactions: int
    converged: bool
    convergence_interaction: Optional[int]
    stopped_reason: str
    outputs: List[Any]
    output_counts: Counter
    distinct_states: int
    state_space: Dict[str, Any]
    min_participation: int
    wall_time_s: float
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def consensus_output(self) -> Optional[Any]:
        """The unique common output if all agents agree, else ``None``."""
        if len(self.output_counts) == 1:
            return next(iter(self.output_counts))
        return None

    @property
    def agreement_fraction(self) -> float:
        """Fraction of agents reporting the most common final output."""
        if not self.output_counts:
            return 0.0
        return self.output_counts.most_common(1)[0][1] / self.n

    def summary(self) -> Dict[str, Any]:
        """Return a compact JSON-friendly summary of the run."""
        return {
            "protocol": self.protocol_name,
            "n": self.n,
            "seed": self.seed,
            "backend": self.extra.get("backend"),
            "interactions": self.interactions,
            "transition_calls": self.extra.get("transition_calls"),
            "converged": self.converged,
            "convergence_interaction": self.convergence_interaction,
            "stopped_reason": self.stopped_reason,
            "consensus_output": json_value(self.consensus_output),
            "agreement_fraction": round(self.agreement_fraction, 4),
            "distinct_states": self.distinct_states,
            "wall_time_s": round(self.wall_time_s, 4),
        }

    def as_json_dict(self) -> Dict[str, Any]:
        """Return a lossless-ish JSON-safe record of the run.

        Extends :meth:`summary` with the output histogram, the state-space
        summary, and the ``extra`` payload, with every non-JSON value passed
        through :func:`json_value`.  This is the serialisation hook used by
        the experiment artifact writers (``SWEEP_*.json``); it deliberately
        omits the per-agent ``outputs`` list, which the histogram already
        represents up to the (meaningless) agent order.
        """
        record = self.summary()
        record["output_counts"] = [
            [json_value(value), count] for value, count in self.output_counts.most_common()
        ]
        record["state_space"] = json_value(self.state_space)
        record["min_participation"] = self.min_participation
        record["extra"] = json_value(self.extra)
        return record


def _record_seed(seed: SeedLike) -> Optional[Union[int, str]]:
    """Stable, JSON-friendly representation of the run seed."""
    if seed is None or isinstance(seed, int):
        return seed
    return repr(seed)


class Simulator:
    """Discrete-event simulator for population protocols.

    Args:
        protocol: The protocol to run.
        n: Population size (``>= 2``).
        seed: Base seed; the scheduler and the agents' synthetic coins derive
            independent sub-streams from it.
        scheduler: Interaction scheduler; defaults to the uniform random
            scheduler of the population model.  Custom schedulers force the
            per-agent backend.
        hooks: Observers notified of simulation events.
        track_state_space: Whether to maintain the observed-state-space
            tracker (cheap, but can be disabled for micro-benchmarks).
        require_uniform: When ``True``, refuse to construct a simulator for a
            protocol that declares ``uniform = False``.
        backend: ``"agent"`` (default) runs the reference per-agent loop;
            ``"batch"`` runs the batched configuration-vector backend (using
            the key-lifting adapter when the protocol has neither a
            ``delta_key`` nor a ``state_from_key``); ``"auto"`` picks ``"batch"`` when the protocol
            natively supports key-level transitions and neither a custom
            scheduler nor a hook requiring per-agent callbacks is in play,
            else ``"agent"``.  The batch backend picks its own sampling
            structures (see :class:`~repro.engine.backends.BatchBackend`).
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        seed: SeedLike = 0,
        scheduler: Optional[Scheduler] = None,
        hooks: Iterable[Hook] = (),
        track_state_space: bool = True,
        require_uniform: bool = False,
        backend: str = "agent",
    ) -> None:
        if n < 2:
            raise ConfigurationError("population size must be at least 2")
        if require_uniform and not protocol.uniform:
            raise UniformityError(
                f"protocol {protocol.name!r} is not uniform but uniformity was required"
            )
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        self.protocol = protocol
        #: Population size the simulator was constructed with; the current
        #: size is the (dynamic) :attr:`n` property, which timeline churn
        #: events may change mid-run.
        self.initial_n = n
        self.seed = seed
        self.hooks: List[Hook] = list(hooks)
        self._scheduler_rng = make_rng(seed, "scheduler")
        self._agent_rng = make_rng(seed, "agents")
        self.track_state_space = track_state_space

        custom_scheduler = scheduler is not None and not isinstance(
            scheduler, UniformRandomScheduler
        )
        agent_only_hooks = [
            hook for hook in self.hooks if getattr(hook, "requires_agent_backend", False)
        ]
        if backend == "auto":
            backend = (
                "batch"
                if protocol.supports_key_transitions()
                and not custom_scheduler
                and not agent_only_hooks
                else "agent"
            )
        if backend == "batch":
            if custom_scheduler:
                raise ConfigurationError(
                    "the batch backend implements the uniform random scheduler; "
                    f"it cannot honour {type(scheduler).__name__}"
                )
            if agent_only_hooks:
                names = ", ".join(type(hook).__name__ for hook in agent_only_hooks)
                raise ConfigurationError(
                    f"hooks requiring per-agent callbacks cannot observe the "
                    f"batch backend: {names}"
                )
            self.scheduler: Scheduler = UniformRandomScheduler()
            self._backend: Backend = BatchBackend(
                self,
                scheduler_rng=self._scheduler_rng,
                agent_rng=self._agent_rng,
                track_state_space=track_state_space,
            )
        else:
            self.scheduler = scheduler if scheduler is not None else UniformRandomScheduler()
            self._backend = AgentBackend(
                self,
                scheduler=self.scheduler,
                scheduler_rng=self._scheduler_rng,
                agent_rng=self._agent_rng,
                track_state_space=track_state_space,
            )

    # --------------------------------------------------------------- backend
    @property
    def n(self) -> int:
        """Current population size (timeline churn events change it mid-run)."""
        backend = getattr(self, "_backend", None)
        return backend.n if backend is not None else self.initial_n

    @property
    def backend(self) -> Backend:
        """The execution backend driving this simulator."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the active backend (``"agent"`` or ``"batch"``)."""
        return self._backend.name

    @property
    def interactions(self) -> int:
        """Total number of interactions executed so far."""
        return self._backend.interactions

    @property
    def counter(self):
        """The backend's interaction counter (aggregate-only for batch)."""
        return self._backend.counter

    @property
    def state_space(self) -> StateSpaceTracker:
        """The backend's observed-state-space tracker."""
        return self._backend.state_space

    @property
    def states(self) -> List[Any]:
        """Per-agent state objects (per-agent backend only)."""
        backend = self._backend
        if isinstance(backend, AgentBackend):
            return backend.states
        raise SimulationError(
            "the batch backend does not materialise per-agent states; "
            "use state_key_counts() instead"
        )

    # ------------------------------------------------------------ observers
    def outputs(self) -> List[Any]:
        """Return the current per-agent outputs.

        Under the batch backend the list is synthesised from the output
        histogram and its order is arbitrary.
        """
        return self._backend.outputs()

    def output_counts(self) -> Counter:
        """Return a histogram of the current per-agent outputs."""
        return self._backend.output_counts()

    def state_keys(self) -> List[Hashable]:
        """Return the current per-agent state keys."""
        return self._backend.state_keys()

    def state_key_counts(self) -> Counter:
        """Return the current configuration as a state-key histogram."""
        return self._backend.state_key_counts()

    def is_stable_configuration(self) -> bool:
        """Check structural stability of the current configuration.

        A configuration is stable when no ordered pair of currently-present
        state keys can change it.  This relies on the protocol overriding
        :meth:`repro.engine.protocol.Protocol.can_interaction_change`; for
        protocols using the conservative default this returns ``False``
        unless only a single state key remains and it is a fixed point.
        """
        counts = self._backend.state_key_counts()
        can_change = self.protocol.can_interaction_change
        for a in counts:
            for b in counts:
                if a is b or a == b:
                    if counts[a] >= 2 and can_change(a, b):
                        return False
                elif can_change(a, b) or can_change(b, a):
                    return False
        return True

    # ------------------------------------------------------------- stepping
    def step(self) -> Tuple[int, int]:
        """Execute a single interaction and return the (initiator, responder) pair.

        Only meaningful for the per-agent backend; the batch backend advances
        whole windows of interactions at once via :meth:`run`.
        """
        backend = self._backend
        if not isinstance(backend, AgentBackend):
            raise SimulationError(
                "step() requires the per-agent backend; the batch backend is "
                "driven through run()"
            )
        return backend.step()

    def run(
        self,
        max_interactions: Optional[int] = None,
        convergence: Optional[OutputPredicate] = None,
        check_interval: Optional[int] = None,
        stop_when_converged: bool = True,
        confirm_checks: int = 3,
        require_convergence: bool = False,
        timeline: Sequence[TimelineEvent] = (),
        convergence_factory: Optional[Callable[["Simulator"], OutputPredicate]] = None,
        max_wall_time_s: Optional[float] = None,
    ) -> SimulationResult:
        """Run the simulation and return a :class:`SimulationResult`.

        Args:
            max_interactions: Interaction budget.  Defaults to
                :func:`default_interaction_budget`.
            convergence: Predicate over the agent outputs defining the
                desired configurations.  It receives the per-agent output
                list under the agent backend and the output histogram under
                the batch backend; the predicates built by
                :mod:`repro.engine.convergence` accept both.  When omitted,
                the run simply exhausts its budget.
            check_interval: How often (in interactions) the predicate is
                evaluated.  Defaults to the *initial* ``n`` (one parallel-time
                unit); the cadence stays fixed through churn so checkpoint
                series remain comparable across a timeline.
            stop_when_converged: Stop early once the predicate has held for
                ``confirm_checks`` consecutive checkpoints.  With a timeline,
                early stopping only applies after the last event — an already-
                converged population must keep running into its next
                disturbance.
            confirm_checks: Number of consecutive satisfied checkpoints
                required before an early stop.
            require_convergence: Raise :class:`SimulationError` if the budget
                is exhausted without the predicate holding at the end.
            timeline: Scheduled :class:`~repro.engine.hooks.TimelineEvent`
                interventions (churn, fault campaigns, scheduler changes).
                The run is split into *segments* at the event boundaries;
                each segment gets its own convergence accounting, and the
                per-segment records (including the recovery time after each
                event) land in ``extra["segments"]`` / ``extra["timeline"]``.
            convergence_factory: Alternative to ``convergence``: a callable
                receiving the simulator and returning the predicate.  It is
                re-invoked after every timeline event, so acceptance criteria
                that depend on the population size track the *new* true ``n``
                through churn.  Mutually exclusive with ``convergence``.
            max_wall_time_s: Wall-clock budget for this run.  Checked between
                checkpoints and advance windows; when exceeded the run stops
                with ``stopped_reason="wall-time"`` (the experiment layer's
                per-cell timeout enforcement).
        """
        budget = max_interactions if max_interactions is not None else default_interaction_budget(self.n)
        if budget < 0:
            raise ConfigurationError("max_interactions must be non-negative")
        cadence = check_interval if check_interval is not None else max(1, self.n)
        if cadence <= 0:
            raise ConfigurationError("check_interval must be positive")
        if confirm_checks < 1:
            raise ConfigurationError("confirm_checks must be at least 1")
        if convergence is not None and convergence_factory is not None:
            raise ConfigurationError(
                "pass either convergence or convergence_factory, not both"
            )
        if max_wall_time_s is not None and max_wall_time_s <= 0:
            raise ConfigurationError("max_wall_time_s must be positive")
        events = sorted(timeline, key=lambda event: event.at)

        backend = self._backend
        predicate = (
            convergence_factory(self) if convergence_factory is not None else convergence
        )
        tracker = ConvergenceTracker()
        started = time.perf_counter()
        deadline = started + max_wall_time_s if max_wall_time_s is not None else None
        stopped_reason = "budget"
        # Interaction index of the last evaluated checkpoint; guards against
        # double-recording the final configuration when the budget is aligned
        # with the check cadence.
        last_checked = 0
        event_index = 0
        segment_start = 0
        segment_event: Optional[Dict[str, Any]] = None  # record of the opening event
        timeline_records: List[Dict[str, Any]] = []
        segment_records: List[Dict[str, Any]] = []
        checks_before = 0  # checkpoint totals of already-closed segments
        satisfied_before = 0
        for hook in self.hooks:
            hook.on_start(self)

        def evaluate_checkpoint() -> bool:
            nonlocal last_checked
            checkpoint_started = time.perf_counter()
            for hook in self.hooks:
                hook.before_checkpoint(self)
            satisfied = predicate(backend.convergence_view())
            tracker.record(last_checked + 1, satisfied)
            last_checked = backend.interactions
            for hook in self.hooks:
                hook.on_checkpoint(self, satisfied)
            backend.tracer.add(
                "checkpoint", time.perf_counter() - checkpoint_started
            )
            return satisfied

        def close_segment() -> None:
            converged_here = tracker.currently_satisfied
            streak_start = tracker.convergence_interaction if converged_here else None
            record = {
                "start": segment_start,
                "end": backend.interactions,
                "n": self.n,
                "opened_by": segment_event["label"] if segment_event else None,
                "checks": tracker.checks,
                "converged": converged_here,
                "convergence_interaction": streak_start,
                "recovery_interactions": (
                    streak_start - segment_start
                    if converged_here and segment_event is not None
                    else None
                ),
            }
            segment_records.append(record)
            if segment_event is not None:
                segment_event["reconverged"] = converged_here
                segment_event["recovery_interactions"] = record["recovery_interactions"]

        while True:
            next_event_at: Optional[int] = None
            if event_index < len(events) and events[event_index].at < budget:
                next_event_at = events[event_index].at
            final_segment = next_event_at is None
            segment_end = budget if final_segment else next_event_at

            while backend.interactions < segment_end:
                if deadline is not None and time.perf_counter() >= deadline:
                    stopped_reason = "wall-time"
                    break
                if predicate is not None:
                    next_stop = min(
                        segment_end, (backend.interactions // cadence + 1) * cadence
                    )
                else:
                    next_stop = segment_end
                backend.advance_to(next_stop)
                if (
                    predicate is not None
                    and backend.interactions % cadence == 0
                    and backend.interactions != last_checked
                ):
                    satisfied = evaluate_checkpoint()
                    if (
                        final_segment
                        and stop_when_converged
                        and satisfied
                        and tracker.current_streak >= confirm_checks
                    ):
                        stopped_reason = "converged"
                        break
                if backend.terminal:
                    if final_segment:
                        stopped_reason = "terminal"
                        break
                    # The configuration is provably frozen until the next
                    # event re-activates it; skipping the window is exact.
                    # One synthetic checkpoint records the frozen state (and
                    # lets checkpoint-triggered hooks fire, which may undo
                    # the terminality).
                    backend.skip_to(segment_end)
                    if predicate is not None and backend.interactions != last_checked:
                        evaluate_checkpoint()
            if stopped_reason != "budget" or final_segment:
                break

            # Apply the pending timeline event and open a new segment.  One
            # extra checkpoint pins down the pre-event configuration so the
            # closing segment's convergence state is exact at the boundary.
            event = events[event_index]
            event_index += 1
            if predicate is not None and backend.interactions != last_checked:
                evaluate_checkpoint()
            close_segment()
            details = event.apply(self)
            event_record: Dict[str, Any] = {
                "at": event.at,
                "kind": event.kind,
                "label": event.label,
                "fired": True,
                "n_after": self.n,
                "details": details,
            }
            timeline_records.append(event_record)
            for hook in self.hooks:
                hook.on_timeline_event(self, event, event_record)
            if convergence_factory is not None:
                predicate = convergence_factory(self)
            checks_before += tracker.checks
            satisfied_before += tracker.satisfied_checks
            tracker = ConvergenceTracker()
            segment_start = event.at
            segment_event = event_record

        converged = False
        convergence_interaction: Optional[int] = None
        if predicate is not None:
            if backend.interactions != last_checked or tracker.checks == 0:
                final_satisfied = predicate(backend.convergence_view())
                tracker.record(last_checked + 1, final_satisfied)
            converged = tracker.currently_satisfied
            convergence_interaction = tracker.convergence_interaction if converged else None
            if converged and stopped_reason == "budget":
                stopped_reason = "converged-at-budget"
        close_segment()
        for event in events[event_index:]:
            timeline_records.append(
                {"at": event.at, "kind": event.kind, "label": event.label, "fired": False}
            )
        wall = time.perf_counter() - started

        for hook in self.hooks:
            hook.on_end(self)

        if require_convergence and predicate is not None and not converged:
            raise SimulationError(
                f"protocol {self.protocol.name!r} (n={self.n}, seed={self.seed!r}) did not "
                f"converge within {budget} interactions"
            )

        output_counts = backend.output_counts()
        extra: Dict[str, Any] = {
            "backend": backend.name,
            "transition_calls": backend.transition_calls,
            "convergence_checks": checks_before + tracker.checks,
            "satisfied_checks": satisfied_before + tracker.satisfied_checks,
            "participation_tracked": isinstance(backend, AgentBackend),
        }
        # Unified per-run trace: phase timers, runtime events, checkpoint
        # cadence, and (batch) geometric-skip efficiency plus the sampler
        # and memo records.
        telemetry: Dict[str, Any] = backend.tracer.as_dict()
        telemetry["backend"] = backend.name
        telemetry["checkpoints"] = {
            "count": checks_before + tracker.checks,
            "satisfied": satisfied_before + tracker.satisfied_checks,
            "cadence": cadence,
        }
        if isinstance(backend, BatchBackend):
            applied = backend.applied_events
            skipped = max(0, backend.interactions - applied)
            telemetry["skips"] = {
                "interactions": backend.interactions,
                "applied_events": applied,
                "skipped_interactions": skipped,
                "efficiency": (
                    round(skipped / backend.interactions, 6)
                    if backend.interactions
                    else 0.0
                ),
            }
            telemetry["sampler"] = backend.sampler_stats()
            telemetry["memo"] = backend.memo_stats()
        extra["telemetry"] = telemetry
        if events:
            extra["initial_n"] = self.initial_n
            extra["timeline"] = timeline_records
            extra["segments"] = segment_records
        if stopped_reason == "wall-time":
            extra["wall_time_exceeded"] = True
        if isinstance(backend, AgentBackend) or self.n <= OUTPUT_LIST_LIMIT:
            outputs = backend.outputs()
        else:
            outputs = []
            extra["outputs_omitted"] = True
        return SimulationResult(
            protocol_name=self.protocol.name,
            n=self.n,
            seed=_record_seed(self.seed),
            interactions=backend.interactions,
            converged=converged,
            convergence_interaction=convergence_interaction,
            stopped_reason=stopped_reason,
            outputs=outputs,
            output_counts=output_counts,
            distinct_states=backend.state_space.distinct_states,
            state_space=backend.state_space.as_dict(),
            min_participation=backend.min_participation,
            wall_time_s=wall,
            extra=extra,
        )


def simulate(
    protocol: Protocol,
    n: int,
    seed: SeedLike = 0,
    max_interactions: Optional[int] = None,
    convergence: Optional[OutputPredicate] = None,
    check_interval: Optional[int] = None,
    hooks: Iterable[Hook] = (),
    scheduler: Optional[Scheduler] = None,
    stop_when_converged: bool = True,
    confirm_checks: int = 3,
    require_convergence: bool = False,
    require_uniform: bool = False,
    backend: str = "agent",
    timeline: Sequence[TimelineEvent] = (),
    convergence_factory: Optional[Callable[[Simulator], OutputPredicate]] = None,
    max_wall_time_s: Optional[float] = None,
) -> SimulationResult:
    """One-shot convenience wrapper: construct a :class:`Simulator` and run it.

    See :meth:`Simulator.run` for the meaning of the arguments and the
    ``backend`` parameter of :class:`Simulator` for backend selection.
    """
    simulator = Simulator(
        protocol,
        n,
        seed=seed,
        scheduler=scheduler,
        hooks=hooks,
        require_uniform=require_uniform,
        backend=backend,
    )
    return simulator.run(
        max_interactions=max_interactions,
        convergence=convergence,
        check_interval=check_interval,
        stop_when_converged=stop_when_converged,
        confirm_checks=confirm_checks,
        require_convergence=require_convergence,
        timeline=timeline,
        convergence_factory=convergence_factory,
        max_wall_time_s=max_wall_time_s,
    )
