"""Simulation backends: per-agent and batched configuration-vector execution.

The population model is a Markov chain over *configurations* — multisets of
agent states.  Two execution strategies for that chain are provided:

* :class:`AgentBackend` materialises one mutable state object per agent and
  executes one Python-level ``transition()`` call per interaction.  It is the
  reference implementation, supports arbitrary schedulers, per-agent hooks
  and per-agent participation accounting, and is exact at the agent level.

* :class:`BatchBackend` collapses the population into a histogram
  ``Counter[state_key] -> count`` (the configuration-as-multiset view of the
  population Markov chain) and samples *batches* of interactions at once:
  the number of configuration-preserving interactions before the next
  configuration-changing one is drawn from a geometric distribution over the
  active pair-type weights, and the transition is then applied once per pair
  *type* instead of once per agent.  Keys are interned to dense integer ids,
  and for protocols declaring
  :attr:`~repro.engine.protocol.Protocol.pure_key_transitions` every
  key-level transition is memoised per id pair, its coin flips replayed from
  the agent stream.  Conditioned on the configuration, the resulting chain
  is distributed exactly as the agent-level chain marginalised over agent
  identities, because agents are anonymous and the uniform scheduler is
  exchangeable.

The batch backend requires the uniform random scheduler and a protocol whose
behaviour depends on states only through their keys (true for every protocol
in this library; state keys encode the full state).  Protocols with neither
a :meth:`~repro.engine.protocol.Protocol.delta_key` override nor a
:meth:`~repro.engine.protocol.Protocol.state_from_key` decoder are lifted to
key space by :class:`LiftedKeyTransitions` using representative state
objects.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

import abc
import random

from ..obs.trace import RunTracer
from .errors import ConfigurationError, SimulationError
from .metrics import AggregateInteractionCounter, InteractionCounter, StateSpaceTracker
from .protocol import Protocol
from .samplers import AgentPairSampler, FenwickSampler, WeightedSampler
from .vectorized import AccelCapacityError, FactorisedPairKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from .scheduler import Scheduler
    from .simulator import Simulator

__all__ = [
    "Backend",
    "AgentBackend",
    "BatchBackend",
    "LiftedKeyTransitions",
    "BACKEND_NAMES",
    "KERNEL_MIN_PAIRS",
]

#: Valid values for the ``backend=`` argument of the simulator.
BACKEND_NAMES = ("agent", "batch", "auto")

#: Width of the active pair table (ordered pair types of positive weight)
#: past which the pruning regime hands its hot loop to the
#: :class:`~repro.engine.vectorized.FactorisedPairKernel`.  Both sides are
#: measured: ``backup-exact`` grows past it within its first ~200 events
#: and runs ~8x faster on the kernel at n = 10^3, while
#: ``one-way-epidemic`` never holds more than 2 active pairs and runs ~1.2x
#: slower when the kernel is forced on it (n = 600-840).
KERNEL_MIN_PAIRS = 32

#: Bits of the responder id in a packed ``a << ID_BITS | b`` memo key.
_ID_BITS = 32


class _CoinNode:
    """Memo entry of a transition whose next step draws ``bits`` coin bits.

    ``children`` maps each value drawn so far to what follows it: another
    node (the transition draws again) or the final ``(new_a, new_b)`` id
    pair.  A value never drawn yet has no child.
    """

    __slots__ = ("bits", "children")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.children: Dict[int, Any] = {}


class _CoinsDrawn(Exception):
    """A coin-free probe of ``delta_key`` tried to draw a coin."""


class _CoinTape:
    """The ``rng`` a pure protocol's ``delta_key`` receives on a memo miss.

    Replays the ``(bits, value)`` draws of ``replay`` — the coin path the
    backend already drew while walking the memo — then draws from
    ``source`` and records every draw in :attr:`drawn`.  With ``source``
    ``None`` any fresh draw raises :class:`_CoinsDrawn`.  Only
    ``getrandbits`` exists: any other ``rng`` method breaks the
    ``pure_key_transitions`` declaration and raises a
    :class:`SimulationError` naming the protocol.
    """

    __slots__ = ("drawn", "_replay", "_source", "_protocol")

    def __init__(
        self,
        protocol: str,
        replay: List[Tuple[int, int]],
        source: Optional[random.Random],
    ) -> None:
        self.drawn: List[Tuple[int, int]] = []
        self._replay = replay
        self._source = source
        self._protocol = protocol

    def getrandbits(self, bits: int) -> int:
        drawn = self.drawn
        index = len(drawn)
        if index < len(self._replay):
            recorded_bits, value = self._replay[index]
            if recorded_bits != bits:
                raise self.impure(
                    f"drew {bits} coin bits where an earlier evaluation of "
                    f"the same key pair drew {recorded_bits}"
                )
        elif self._source is None:
            raise _CoinsDrawn
        else:
            value = self._source.getrandbits(bits)
        drawn.append((bits, value))
        return value

    def impure(self, detail: str) -> SimulationError:
        return SimulationError(
            f"protocol {self._protocol!r} declares pure_key_transitions, so its "
            f"delta_key must be a function of the two keys and the coins it "
            f"draws with rng.getrandbits, but it {detail}"
        )

    def __getattr__(self, attribute: str) -> Any:
        raise self.impure(f"used rng.{attribute}")


class LiftedKeyTransitions:
    """Lift a mutating ``transition()`` to pure key space via representatives.

    One representative state object is kept per observed key; a key-level
    transition copies the two representatives, applies the protocol's
    mutating ``transition()``, and returns (registering) the resulting keys.
    This is exact whenever the protocol's behaviour depends on a state only
    through its key — which holds for every protocol in this library, since
    state keys encode the complete state.

    Requires a working
    :meth:`~repro.engine.protocol.Protocol.copy_state`.
    """

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = protocol
        self._representatives: Dict[Hashable, Any] = {}

    def register(self, state: Any) -> Hashable:
        """Record ``state`` as the representative of its key; return the key."""
        key = self.protocol.state_key(state)
        if key not in self._representatives:
            self._representatives[key] = self.protocol.copy_state(state)
        return key

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        """Key-level transition implemented on copies of the representatives."""
        protocol = self.protocol
        state_a = protocol.copy_state(self._representatives[key_a])
        state_b = protocol.copy_state(self._representatives[key_b])
        protocol.transition(state_a, state_b, rng)
        return self.register(state_a), self.register(state_b)

    def output_key(self, key: Hashable) -> Any:
        """Output of an agent in the state represented by ``key``."""
        return self.protocol.output(self._representatives[key])

    def knows(self, key: Hashable) -> bool:
        """Whether a representative state exists for ``key``."""
        return key in self._representatives


class Backend(abc.ABC):
    """Execution strategy for the population Markov chain.

    A backend owns the population representation, the interaction counter,
    and the observed-state-space tracker, and advances the chain on behalf
    of :class:`~repro.engine.simulator.Simulator`.  All observers are
    histogram-first: :meth:`state_key_counts` and :meth:`output_counts` are
    cheap for both backends.  Per-agent views are read off directly (agent)
    or expanded from the histogram (batch): the batch backend's dense regime
    keeps one id per agent, but a slot does not follow an agent's identity.
    """

    name: str = ""

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        self.protocol: Protocol = simulator.protocol
        self.n: int = simulator.n
        #: Next agent id handed to ``Protocol.initial_state`` when agents
        #: join a running population (ids never repeat within a run).
        self._next_agent_id: int = self.n
        #: Number of population-changing operations (join/leave/restart)
        #: applied so far.
        self.population_changes: int = 0
        self.interactions: int = 0
        #: Number of Python-level transition invocations actually executed
        #: (``transition()`` for the agent backend, ``delta_key()`` for the
        #: batch backend; memoised applications do not count).
        self.transition_calls: int = 0
        #: Set when the configuration has provably reached a fixed point
        #: (no ordered pair of present keys can change it).
        self.terminal: bool = False
        self.state_space = StateSpaceTracker()
        #: Per-run phase timers and runtime event log; folded into
        #: ``SimulationResult.extra["telemetry"]`` by the simulator.
        #: Tracing reads ``perf_counter`` only — never an RNG stream — so
        #: instrumented runs stay stream-identical.
        self.tracer = RunTracer()

    # -------------------------------------------------------------- stepping
    @abc.abstractmethod
    def advance_to(self, target: int) -> None:
        """Advance the chain until ``interactions == target`` or terminal."""

    def skip_to(self, target: int) -> None:
        """Jump the interaction counter forward without simulating.

        Exact only while the configuration provably cannot change (the batch
        backend's :attr:`terminal` state); the simulator uses it to fast-
        forward a terminal configuration to the next timeline event, which
        may then re-activate the population.
        """
        if target < self.interactions:
            raise SimulationError(
                f"cannot skip backwards from {self.interactions} to {target}"
            )
        self.interactions = target

    # ------------------------------------------------- population dynamics
    def fresh_initial_state(self) -> Any:
        """Initial state of a brand-new agent (consumes a never-used id).

        Protocols whose ``initial_state`` depends on the agent id (epidemic
        sources, designated piles) hand fresh agents the "blank" state of a
        late agent — the natural semantics for joiners and reset victims.
        """
        state = self.protocol.initial_state(self._next_agent_id)
        self._next_agent_id += 1
        return state

    @abc.abstractmethod
    def join(self, count: int) -> Dict[str, Any]:
        """Add ``count`` fresh agents (in their protocol initial state).

        New agents receive never-before-used agent ids, so protocols whose
        ``initial_state`` depends on the id (e.g. epidemic sources) hand
        joiners the "blank" state of a late agent.  Returns a JSON-friendly
        record of the change.
        """

    @abc.abstractmethod
    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        """Remove ``count`` uniformly random distinct agents.

        Raises :class:`ConfigurationError` when fewer than ``min_remaining``
        agents would remain (the population model needs two).
        """

    def replace(self, count: int, rng: random.Random) -> Dict[str, Any]:
        """Crash-and-rejoin churn: ``count`` random agents leave, ``count`` join.

        The joiners are fresh agents (initial state, new ids); the population
        size is unchanged.
        """
        left = self.leave(count, rng, min_remaining=0)
        joined = self.join(count)
        return {"replaced": count, "left": left, "joined": joined}

    @abc.abstractmethod
    def restart_population(self) -> Dict[str, Any]:
        """Reset every agent to the initial configuration at the current size.

        This is the recovery action of the paper's hybrid protocols after a
        detected error, applied population-wide: the run continues as a fresh
        execution over the *current* ``n`` (agent ids ``0..n-1``), which is
        what lets the counting protocols re-count after churn.
        """

    def _check_population(self, count: int) -> None:
        if count < 0:
            raise ConfigurationError("population change count must be non-negative")

    # ------------------------------------------------------------- observers
    @abc.abstractmethod
    def state_key_counts(self) -> Counter:
        """Histogram of current state keys (the configuration vector)."""

    @abc.abstractmethod
    def output_counts(self) -> Counter:
        """Histogram of current agent outputs."""

    @abc.abstractmethod
    def outputs(self) -> List[Any]:
        """Per-agent outputs (order is meaningful only for the agent backend)."""

    @abc.abstractmethod
    def convergence_view(self) -> Any:
        """Value handed to convergence predicates.

        The agent backend passes the per-agent output list (full backwards
        compatibility with sequence predicates); the batch backend passes the
        output histogram, which the built-in predicates in
        :mod:`repro.engine.convergence` also accept.
        """

    def state_keys(self) -> List[Hashable]:
        """Current state keys, expanded to one entry per agent."""
        expanded: List[Hashable] = []
        for key, count in self.state_key_counts().items():
            expanded.extend([key] * count)
        return expanded

    @property
    def min_participation(self) -> int:
        """Minimum per-agent participation (0 when not tracked)."""
        return 0


class AgentBackend(Backend):
    """The reference per-agent execution strategy (one object per agent)."""

    name = "agent"

    def __init__(
        self,
        simulator: "Simulator",
        scheduler: "Scheduler",
        scheduler_rng: random.Random,
        agent_rng: random.Random,
        track_state_space: bool = True,
    ) -> None:
        super().__init__(simulator)
        self.scheduler = scheduler
        self._scheduler_rng = scheduler_rng
        self._agent_rng = agent_rng
        self.states: List[Any] = [self.protocol.initial_state(i) for i in range(self.n)]
        self.counter = InteractionCounter(self.n)
        self.track_state_space = track_state_space
        if track_state_space:
            key = self.protocol.state_key
            for state in self.states:
                self.state_space.observe(key(state))

    def step(self) -> Tuple[int, int]:
        """Execute one interaction; return the (initiator, responder) pair."""
        simulator = self.simulator
        tracer = self.tracer
        tic = perf_counter()
        initiator, responder = self.scheduler.next_pair(
            self.n, self._scheduler_rng, self.interactions
        )
        tracer.add("sampling", perf_counter() - tic)
        for hook in simulator.hooks:
            hook.before_interaction(simulator, initiator, responder)
        tic = perf_counter()
        self.protocol.transition(
            self.states[initiator], self.states[responder], self._agent_rng
        )
        tracer.add("transition", perf_counter() - tic)
        self.interactions += 1
        self.transition_calls += 1
        self.counter.record(initiator, responder)
        if self.track_state_space:
            key = self.protocol.state_key
            self.state_space.observe(key(self.states[initiator]))
            self.state_space.observe(key(self.states[responder]))
        for hook in simulator.hooks:
            hook.after_interaction(simulator, initiator, responder)
        return initiator, responder

    def advance_to(self, target: int) -> None:
        while self.interactions < target:
            self.step()

    def state_key_counts(self) -> Counter:
        key = self.protocol.state_key
        return Counter(key(state) for state in self.states)

    def outputs(self) -> List[Any]:
        output = self.protocol.output
        return [output(state) for state in self.states]

    def output_counts(self) -> Counter:
        return Counter(self.outputs())

    def convergence_view(self) -> List[Any]:
        return self.outputs()

    def state_keys(self) -> List[Hashable]:
        key = self.protocol.state_key
        return [key(state) for state in self.states]

    @property
    def min_participation(self) -> int:
        return self.counter.min_participation

    # ------------------------------------------------- population dynamics
    def join(self, count: int) -> Dict[str, Any]:
        self._check_population(count)
        protocol = self.protocol
        for _ in range(count):
            state = self.fresh_initial_state()
            self.states.append(state)
            self.counter.add_agent()
            if self.track_state_space:
                self.state_space.observe(protocol.state_key(state))
        self.n += count
        self.population_changes += 1
        return {"joined": count, "n": self.n}

    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        self._check_population(count)
        if self.n - count < min_remaining:
            raise ConfigurationError(
                f"cannot remove {count} of {self.n} agents; at least "
                f"{min_remaining} must remain"
            )
        # Swap-removal in descending index order keeps pending indices valid;
        # the per-agent participation counters follow the same moves.
        for index in sorted(rng.sample(range(self.n), count), reverse=True):
            self.states[index] = self.states[-1]
            self.states.pop()
            self.counter.remove_agent(index)
        self.n -= count
        self.population_changes += 1
        return {"left": count, "n": self.n}

    def restart_population(self) -> Dict[str, Any]:
        protocol = self.protocol
        self.states = [protocol.initial_state(i) for i in range(self.n)]
        if self.track_state_space:
            key = protocol.state_key
            for state in self.states:
                self.state_space.observe(key(state))
        self.population_changes += 1
        return {"restarted": self.n, "n": self.n}

    # ----------------------------------------------------- failure injection
    def corrupt_agents(
        self,
        victims: int,
        rewrite: Any,
        rng: random.Random,
    ) -> int:
        """Corrupt ``victims`` distinct agents' state objects.

        The agent-level analogue of
        :meth:`BatchBackend.corrupt_histogram`: ``rewrite(state, rng)``
        returns the victim's replacement state (or ``None`` to keep the —
        possibly mutated in place — original object).  Returns the number of
        victims whose state *key* actually changed, matching the batch
        backend's accounting so scenario records compare across backends.
        """
        if victims < 0:
            raise ConfigurationError("victims must be non-negative")
        if victims > self.n:
            raise ConfigurationError(
                f"cannot corrupt {victims} distinct agents in a population of {self.n}"
            )
        key = self.protocol.state_key
        changed = 0
        for index in rng.sample(range(self.n), victims):
            old_key = key(self.states[index])
            new_state = rewrite(self.states[index], rng)
            if new_state is not None:
                self.states[index] = new_state
            new_key = key(self.states[index])
            if new_key != old_key:
                changed += 1
            if self.track_state_space:
                self.state_space.observe(new_key)
        return changed


class BatchBackend(Backend):
    """Batched configuration-vector execution of the population chain.

    The configuration is a histogram ``counts: key -> multiplicity``.  Let
    ``T = n (n - 1)`` be the number of ordered agent pairs and, for each
    ordered key pair ``(a, b)`` that
    :meth:`~repro.engine.protocol.Protocol.can_interaction_change` marks as
    able to change the configuration, let ``w(a, b) = c_a c_b`` (or
    ``c_a (c_a - 1)`` when ``a == b``) be the number of ordered agent pairs
    realising it.  One *event loop iteration* then

    1. draws the number of configuration-preserving interactions preceding
       the next configuration-changing one from ``Geometric(W / T)`` where
       ``W = sum w(a, b)`` — these are skipped in O(1);
    2. picks the active ordered pair type with probability ``w(a, b) / W``;
    3. applies :meth:`~repro.engine.protocol.Protocol.delta_key` once for
       that *type* (memoised when the protocol declares pure key
       transitions, see below) and updates the histogram.

    Pair-type weights are maintained incrementally: an event changes the
    multiplicities of at most four keys, so only the pair weights involving
    those keys are recomputed (``O(K)`` per event for ``K`` distinct keys,
    instead of ``O(K^2)``).  When ``W == 0`` the configuration is a fixed
    point and the backend reports :attr:`~Backend.terminal`.

    Truncating a geometric skip at an interaction budget or checkpoint
    boundary and re-sampling later is exact by memorylessness.

    Keys are interned to dense integer ids on first sight: the histogram,
    the agent array, the pair table and the transition memo all work on ids,
    and keys cross back only at the protocol boundary (``delta_key`` and
    ``can_interaction_change`` on a cache miss, ``output_key`` once per id)
    and in hooks, public views and fault rewrites.  The id histogram is
    updated by the same operations in the same order a key histogram would
    be, so every structure built from it sees a renamed copy of the key
    sequence.

    For a protocol declaring
    :attr:`~repro.engine.protocol.Protocol.pure_key_transitions` the memo
    maps each id pair to the ``(new_a, new_b)`` ids of its transition or,
    when ``delta_key`` flips coins, to a tree with one branch per drawn
    value.  A hit draws the same ``getrandbits`` from the agent stream that
    ``delta_key`` would and follows the branch; a missing branch is
    evaluated once, replaying the values already drawn.  The agent stream is
    therefore consumed exactly as without the memo.  Other protocols call
    ``delta_key`` on every event.

    Two sampling regimes are used, chosen at construction:

    * **Pruning** — the protocol overrides ``can_interaction_change``, so the
      active-pair weight table above is worth maintaining: skips are long and
      the active pair type is drawn from a
      :class:`~repro.engine.samplers.FenwickSampler` over the table.
    * **Dense** — the protocol keeps the conservative default, every ordered
      pair is active (``W == T``, no skipping is ever possible), and the
      O(K^2) pair table would be pure overhead.  The backend instead keeps
      one id per agent in a list, :attr:`_agents`, and draws each
      interaction's two indices from an
      :class:`~repro.engine.samplers.AgentPairSampler` — the uniform law
      over ordered pairs of distinct agents, in O(1) and with no rejection.
      The two slots are rewritten only when the histogram changed: the law
      of the histogram chain does not depend on how ids are arranged over
      the slots, so a swap or a no-op leaves them as they are.  Every
      interaction is an event here, so one fused loop per advance window
      (:meth:`_advance_dense`) runs them with its state in locals and its
      phase timers per window rather than per event.  This is the regime
      of the composed counting protocols, whose no-op analysis is out of
      reach of a per-pair predicate.

    **Owned states** (dense regime only).  Theorem 2's CountExact uses Õ(n)
    states, so most of its events are memo misses, and decoding both keys
    was most of a miss.  For a protocol whose key-level API is a
    :meth:`~repro.engine.protocol.Protocol.state_from_key` decoder under the
    base ``delta_key``, the backend therefore keeps, per live id, at most
    one *owned* state: a post-interaction state object a miss produced,
    referenced by nothing else.  A miss pops the owned states of
    its two ids (decoding an id that has none), hands them to ``delta_key``,
    which mutates them by ``transition``, and stores them as the owned
    states of the two result ids unless those already own one.  An owned
    state differs from a decoded one only in bookkeeping its key drops (the
    raw phase counter, see :mod:`repro.counting.keys`), so streams are those
    of decoding every miss.  Every path that removes an id from the
    histogram drops its owned state and a restart clears them all, so there
    are never more owned states than live ids.  The pruning regime, the
    lifted adapter and protocols overriding ``delta_key`` keep none.

    The backend picks its hot loop from what it observes; there is no knob.
    In the pruning regime, once the active pair table holds more than
    :data:`KERNEL_MIN_PAIRS` entries, the materialised table and its
    O(changed * K) per-event :meth:`_update_pair_weights` walk are replaced
    for the rest of the run by the pure-Python factorised ``w(a, b) = c_a *
    c_b`` row/column-product kernel of :mod:`repro.engine.vectorized`, whose
    count updates are one activity-column walk per changed key.  A protocol
    whose live key set outgrows the kernel's activity matrix falls back to
    the Fenwick path mid-run.  :meth:`sampler_stats`,
    :meth:`accel_info` and :meth:`memo_stats` report the path taken
    (surfaced in ``SimulationResult.extra["telemetry"]``).
    """

    name = "batch"

    def __init__(
        self,
        simulator: "Simulator",
        scheduler_rng: random.Random,
        agent_rng: random.Random,
        track_state_space: bool = True,
    ) -> None:
        super().__init__(simulator)
        protocol = self.protocol
        self._pair_rng = scheduler_rng
        self._agent_rng = agent_rng
        self.track_state_space = track_state_space
        self._lifted: Optional[LiftedKeyTransitions] = None
        if protocol.supports_key_transitions():
            self._delta = protocol.delta_key
            self._output_key = protocol.output_key
            initial: Counter = Counter(protocol.initial_key_counts(self.n))
        else:
            lifted = LiftedKeyTransitions(protocol)
            self._lifted = lifted
            self._delta = lifted.delta_key
            self._output_key = lifted.output_key
            initial = Counter()
            for agent_id in range(self.n):
                initial[lifted.register(protocol.initial_state(agent_id))] += 1
        total = sum(initial.values())
        if total != self.n:
            raise SimulationError(
                f"initial key histogram covers {total} agents, expected {self.n}"
            )
        # Interning: id -> key, key -> id, id -> output.
        self._keys: List[Hashable] = []
        self._ids: Dict[Hashable, int] = {}
        self._outputs: List[Any] = []
        #: The configuration: a histogram over interned key ids.
        self._counts: Counter = self._intern_counts(initial)
        self.counter = AggregateInteractionCounter(self.n)
        self._pure = protocol.pure_key_transitions
        #: Packed id pair -> ``(new_a, new_b)`` ids or a :class:`_CoinNode`.
        self._memo: Dict[int, Any] = {}
        self._memo_hits = 0
        self._memo_misses = 0
        self._coin_nodes = 0
        self._can_change_cache: Dict[Tuple[int, int], bool] = {}
        # Two sampling regimes (see class docstring).  A protocol that keeps
        # the conservative default ``can_interaction_change`` marks *every*
        # ordered pair active, so the pair-weight table would cost O(K^2)
        # upkeep for zero skipping; such protocols use the dense regime,
        # which samples the two participants straight from the key histogram.
        self._prunes = (
            type(protocol).can_interaction_change is not Protocol.can_interaction_change
        )
        #: Whether the factorised kernel may still engage: pruning regime,
        #: not engaged yet and no capacity fallback.
        self._kernel_armed = self._prunes
        self._accel_fallback: Optional[str] = None
        #: Stats snapshots of samplers and kernels replaced mid-run.
        self._retired_samplers: List[Dict[str, Any]] = []
        #: Configuration-changing events actually applied; the complement
        #: of ``interactions`` measures the geometric-skip efficiency.
        self.applied_events: int = 0
        # Pruning regime: sampler over active pair types, None while the
        # kernel is engaged.  Dense regime: sampler over agent index pairs.
        self._sampler: Optional[WeightedSampler] = None
        self._pair_kernel: Optional[FactorisedPairKernel] = None
        # Active ordered pair types and their integer weights; rebuilt lazily
        # in full once, then maintained incrementally per event.
        self._pair_weights: Dict[Tuple[int, int], int] = {}
        self._active_weight = 0
        #: Dense regime: the id of every agent, in no meaningful order (a
        #: multiset equal to ``_counts``).  Empty in the pruning regime.
        self._agents: List[int] = []
        #: Dense regime: the live post-interaction state of an id, kept from
        #: the miss that produced it and handed to the next miss on that id
        #: (see class docstring).  At most one per id in ``_counts``.
        self._owned: Dict[int, Any] = {}
        #: The decoder of ids with no owned state; ``None`` turns owned
        #: states off (pruning regime, lifted adapter, ``delta_key`` override).
        self._decode: Optional[Callable[[Hashable], Any]] = None
        if self._prunes:
            self._rebuild_pair_weights()
        else:
            self._agents = list(self._counts.elements())
            self._sampler = AgentPairSampler(self.n)
            if self._lifted is None and type(protocol).delta_key is Protocol.delta_key:
                self._decode = protocol.state_from_key
            # An initial configuration may already be the provable fixed
            # point (single key, coin-free no-op self-interaction).
            self._check_dense_fixed_point()

    # ------------------------------------------------------------- interning
    def _intern(self, key: Hashable) -> int:
        """Id of ``key``, assigning the next one (and observing it) when new."""
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._outputs.append(self._output_key(key))
            if self.track_state_space:
                self.state_space.observe(key)
        return ident

    def _intern_counts(self, counts: Counter) -> Counter:
        """A key histogram renamed to ids, in the same order."""
        return Counter({self._intern(key): count for key, count in counts.items()})

    # ------------------------------------------------------------ transitions
    def _resolve(self, ident_a: int, ident_b: int, entry: Any) -> Tuple[int, int]:
        """Post-interaction ids of ``(a, b)`` whose memo ``entry`` is not a hit.

        Walks the coin nodes, drawing each one's bits from the agent stream,
        and evaluates ``delta_key`` only when the walk ends on a value not
        drawn before (or on no entry at all).
        """
        path: List[Tuple[int, int]] = []
        if entry is not None:
            getrandbits = self._agent_rng.getrandbits
            while entry.__class__ is _CoinNode:
                value = getrandbits(entry.bits)
                path.append((entry.bits, value))
                entry = entry.children.get(value)
                if entry is None:
                    break
            else:
                self._memo_hits += 1
                return entry
        self._memo_misses += 1
        return self._evaluate(ident_a, ident_b, path)

    def _evaluate(
        self, ident_a: int, ident_b: int, path: List[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Call ``delta_key`` on a memo miss; memoise the result when pure.

        ``path`` holds the coin values already drawn for this pair, which
        the tape replays before drawing fresh ones from the agent stream.
        With owned states on, the two ids' owned states are handed to
        ``delta_key`` (an id without one is decoded) and the post-interaction
        states become the owned states of the result ids.
        """
        keys = self._keys
        key_a = keys[ident_a]
        key_b = keys[ident_b]
        self.transition_calls += 1
        rng = (
            _CoinTape(self.protocol.name, path, self._agent_rng)
            if self._pure
            else self._agent_rng
        )
        decode = self._decode
        if decode is None:
            new_a, new_b = self._delta(key_a, key_b, rng)
            result = (self._intern(new_a), self._intern(new_b))
        else:
            owned = self._owned
            state_a = owned.pop(ident_a, None)
            if state_a is None:
                state_a = decode(key_a)
            state_b = owned.pop(ident_b, None)
            if state_b is None:
                state_b = decode(key_b)
            new_a, new_b = self._delta(key_a, key_b, rng, state_a, state_b)
            result = (self._intern(new_a), self._intern(new_b))
            owned.setdefault(result[0], state_a)
            owned.setdefault(result[1], state_b)
        if not self._pure:
            return result
        drawn = rng.drawn
        if len(drawn) < len(path):
            raise rng.impure(
                f"drew {len(drawn)} coins where an earlier evaluation of the "
                f"same key pair drew at least {len(path)}"
            )
        pair = ident_a << _ID_BITS | ident_b
        if not drawn:
            self._memo[pair] = result
            return result
        node = self._memo.get(pair)
        if node is None:
            node = self._memo[pair] = self._coin_node(drawn[0][0])
        for index in range(len(drawn) - 1):
            value = drawn[index][1]
            child = node.children.get(value)
            if child is None:
                child = node.children[value] = self._coin_node(drawn[index + 1][0])
            node = child
        node.children[drawn[-1][1]] = result
        return result

    def _coin_node(self, bits: int) -> _CoinNode:
        self._coin_nodes += 1
        return _CoinNode(bits)

    # ------------------------------------------------------------ pair table
    def _can_change(self, ident_a: int, ident_b: int) -> bool:
        cached = self._can_change_cache.get((ident_a, ident_b))
        if cached is None:
            keys = self._keys
            cached = bool(
                self.protocol.can_interaction_change(keys[ident_a], keys[ident_b])
            )
            self._can_change_cache[(ident_a, ident_b)] = cached
        return cached

    def _pair_weight(self, ident_a: int, ident_b: int) -> int:
        count_a = self._counts.get(ident_a, 0)
        if ident_a == ident_b:
            return count_a * (count_a - 1)
        return count_a * self._counts.get(ident_b, 0)

    #: Below this many distinct keys a full O(K^2) table rebuild (with lower
    #: constants) beats the O(changed * K) incremental update.
    _REBUILD_THRESHOLD = 16

    def _rebuild_pair_weights(self) -> None:
        """Recompute the full active-pair weight table (O(K^2), inlined hot path)."""
        counts = self._counts
        can_cache = self._can_change_cache
        can_change = self._can_change
        pair_weights: Dict[Tuple[int, int], int] = {}
        total = 0
        items = list(counts.items())
        for ident_a, count_a in items:
            for ident_b, count_b in items:
                if ident_a == ident_b:
                    weight = count_a * (count_a - 1)
                else:
                    weight = count_a * count_b
                if weight <= 0:
                    continue
                pair = (ident_a, ident_b)
                changeable = can_cache.get(pair)
                if changeable is None:
                    changeable = can_change(ident_a, ident_b)
                if changeable:
                    pair_weights[pair] = weight
                    total += weight
        self._pair_weights = pair_weights
        self._active_weight = total
        if self._sampler is None:
            self._sampler = FenwickSampler(pair_weights)
        else:
            self._sampler.rebuild(pair_weights)

    def _update_pair_weights(self, changed: Tuple[int, ...]) -> None:
        """Refresh pair weights after an event changed the ``changed`` keys.

        Small configurations are rebuilt wholesale (lower constants); larger
        ones are updated incrementally, touching only the O(changed * K)
        ordered pairs that involve a changed key — with the sampler notified
        per changed pair, which is where the Fenwick tree's O(log P) point
        updates pay off.
        """
        counts = self._counts
        if len(counts) <= self._REBUILD_THRESHOLD:
            self._rebuild_pair_weights()
            return
        # New pair types take sampler slots in the order this walk meets
        # them, which the seeded streams pin to the iteration order of sets
        # of *keys*; the walk therefore visits keys in that order.
        keys = self._keys
        ids = self._ids
        changed_keys = set([keys[ident] for ident in changed])
        neighbours = [
            ids[key] for key in set([keys[ident] for ident in counts]) | changed_keys
        ]
        pair_weights = self._pair_weights
        sampler = self._sampler
        total = self._active_weight
        for key_d in changed_keys:
            ident_d = ids[key_d]
            for ident_x in neighbours:
                pairs = (
                    ((ident_d, ident_d),)
                    if ident_x == ident_d
                    else ((ident_d, ident_x), (ident_x, ident_d))
                )
                for pair in pairs:
                    old = pair_weights.pop(pair, 0)
                    total -= old
                    weight = self._pair_weight(*pair)
                    if weight > 0 and self._can_change(*pair):
                        pair_weights[pair] = weight
                        total += weight
                        if weight != old:
                            sampler.update(pair, weight)
                    elif old:
                        sampler.update(pair, 0)
        self._active_weight = total

    # -------------------------------------------------------------- stepping
    def advance_to(self, target: int) -> None:
        if not self._prunes:
            self._advance_dense(target)
            return
        if self._pair_kernel is not None:
            self._advance_pruning_kernel(target)
            return
        ordered_pairs = self.n * (self.n - 1)
        log = math.log
        log1p = math.log1p
        pair_rng = self._pair_rng
        while self.interactions < target and not self.terminal:
            if self._kernel_armed and len(self._pair_weights) > KERNEL_MIN_PAIRS:
                self._engage_pair_kernel()
                if self._pair_kernel is not None:
                    self._advance_pruning_kernel(target)
                    return
            weight = self._active_weight
            if weight <= 0:
                self.terminal = True
                break
            if weight >= ordered_pairs:
                skip = 0
            else:
                # Number of configuration-preserving interactions before the
                # next configuration-changing one: Geometric(p), p = W / T.
                uniform = 1.0 - pair_rng.random()  # in (0, 1]
                if uniform >= 1.0:
                    skip = 0
                else:
                    skip = int(log(uniform) / log1p(-weight / ordered_pairs))
            remaining = target - self.interactions
            if skip >= remaining:
                # The whole window is configuration-preserving; the pending
                # active event is re-sampled next call (memorylessness).
                self.interactions = target
                break
            self.interactions += skip + 1
            self._apply_event()
        self.counter.total = self.interactions

    def _advance_dense(self, target: int) -> None:
        """Dense-regime event loop: every interaction is one event.

        One loop per window with its state bound to locals.  Each
        interaction draws two agent indices from the
        :class:`~repro.engine.samplers.AgentPairSampler`, reads the two
        slots of :attr:`_agents` and looks the id pair up in the memo: a
        plain ``(new_a, new_b)`` hit costs one dict lookup, coin nodes and
        misses go through :meth:`_resolve`.  The histogram and the two slots
        are rewritten only when the configuration changed, the histogram by
        the same operations in the same order as :meth:`_apply_transition`.

        Phase timers run once per window and around each :meth:`_resolve`
        call, not per event; :mod:`repro.obs.trace` says what each phase
        then covers.  Hooks fire with the event already counted, and a hook
        that leaves the backend :attr:`~Backend.terminal` ends the window.
        """
        interactions = self.interactions
        if interactions >= target or self.terminal:
            return
        hooks = self.simulator.hooks
        sample = self._sampler.sample
        pair_rng = self._pair_rng
        memo_get = self._memo.get
        resolve = self._resolve
        agents = self._agents
        counts = self._counts
        count_of = counts.get
        drop_owned = self._owned.pop
        id_bits = _ID_BITS
        clock = perf_counter
        start = interactions
        hits = changes = 0
        resolve_s = hooks_s = 0.0
        window_started = clock()
        try:
            while interactions < target:
                interactions += 1
                initiator, responder = sample(pair_rng)
                ident_a = agents[initiator]
                ident_b = agents[responder]
                entry = memo_get(ident_a << id_bits | ident_b)
                if entry.__class__ is tuple:
                    hits += 1
                    new_a, new_b = entry
                else:
                    tic = clock()
                    new_a, new_b = resolve(ident_a, ident_b, entry)
                    resolve_s += clock() - tic
                if (new_a != ident_a or new_b != ident_b) and (
                    new_a != ident_b or new_b != ident_a
                ):
                    changes += 1
                    counts[ident_a] -= 1
                    counts[ident_b] -= 1
                    counts[new_a] += 1
                    counts[new_b] += 1
                    if count_of(ident_a) == 0:
                        del counts[ident_a]
                        drop_owned(ident_a, None)
                    if count_of(ident_b) == 0:
                        del counts[ident_b]
                        drop_owned(ident_b, None)
                    agents[initiator] = new_a
                    agents[responder] = new_b
                    if len(counts) == 1:
                        self._check_dense_fixed_point()
                        if self.terminal and not hooks:
                            break  # (with hooks, the check after them does)
                if hooks:
                    self.interactions = interactions
                    tic = clock()
                    self._fire_batch_hooks(ident_a, ident_b, new_a, new_b)
                    hooks_s += clock() - tic
                    # A hook may have rewritten or replaced the population.
                    agents = self._agents
                    counts = self._counts
                    count_of = counts.get
                    if self.terminal:
                        break
        finally:
            window_s = clock() - window_started
            events = interactions - start
            self.interactions = interactions
            self.counter.total = interactions
            self.applied_events += events
            self._memo_hits += hits
            tracer = self.tracer
            tracer.add("sampling", window_s - resolve_s - hooks_s, ops=events)
            tracer.add("transition", resolve_s, ops=events)
            if changes:
                tracer.add("pair_weights", 0.0, ops=changes)

    def _retire_sampler(
        self, stats: Dict[str, Any], regime: str, retired_by: str
    ) -> None:
        """Snapshot a sampler/kernel being replaced mid-run.

        Every retirement — kernel engagement, capacity fallback — funnels
        through here, so no replacement path can drop the counters of the
        structure it replaces, and each snapshot is stamped with why and
        when it was retired.
        """
        stats["regime"] = regime
        stats["retired_by"] = retired_by
        stats["retired_at"] = self.interactions
        self._retired_samplers.append(stats)
        self.tracer.note_event(
            "sampler-retired",
            at=self.interactions,
            strategy=stats.get("strategy", stats.get("kernel")),
            regime=regime,
            reason=retired_by,
        )

    def _apply_transition(
        self, ident_a: int, ident_b: int
    ) -> Tuple[int, int, Tuple[int, ...]]:
        """Apply one pair type's transition to the histogram.

        Shared by the pruning regime's Fenwick and kernel event loops (the
        dense loop inlines the same steps): looks the transition up
        in the memo (a coin-free hit costs one dict lookup), updates the
        histogram when the configuration changed, and returns ``(new_a,
        new_b, changed)`` where ``changed`` is the (possibly overlapping)
        4-tuple of touched ids, or ``()`` when the interaction was
        configuration-preserving.  Weight-structure maintenance is the
        caller's job — it differs per path.
        """
        entry = self._memo.get(ident_a << _ID_BITS | ident_b)
        if entry.__class__ is tuple:
            self._memo_hits += 1
            new_a, new_b = entry
        else:
            new_a, new_b = self._resolve(ident_a, ident_b, entry)
        if (new_a == ident_a and new_b == ident_b) or (
            new_a == ident_b and new_b == ident_a
        ):
            return new_a, new_b, ()
        counts = self._counts
        counts[ident_a] -= 1
        counts[ident_b] -= 1
        counts[new_a] += 1
        counts[new_b] += 1
        for ident in (ident_a, ident_b):
            if counts.get(ident) == 0:
                del counts[ident]
        return new_a, new_b, (ident_a, ident_b, new_a, new_b)

    def _fire_batch_hooks(
        self, ident_a: int, ident_b: int, new_a: int, new_b: int
    ) -> None:
        simulator = self.simulator
        keys = self._keys
        for hook in simulator.hooks:
            hook.on_batch_event(
                simulator, keys[ident_a], keys[ident_b], keys[new_a], keys[new_b]
            )

    def _apply_event(self) -> None:
        """Sample one active pair type and apply its transition (pruning regime).

        "Active" means :meth:`can_interaction_change` could not rule out a
        configuration change, so the applied transition may still turn out
        to be a no-op.
        """
        tracer = self.tracer
        tic = perf_counter()
        ident_a, ident_b = self._sampler.sample(self._pair_rng)
        toc = perf_counter()
        tracer.add("sampling", toc - tic)
        new_a, new_b, changed = self._apply_transition(ident_a, ident_b)
        tic = perf_counter()
        tracer.add("transition", tic - toc)
        self.applied_events += 1
        if changed:
            self._update_pair_weights(changed)
            tracer.add("pair_weights", perf_counter() - tic)
        if self.simulator.hooks:
            self._fire_batch_hooks(ident_a, ident_b, new_a, new_b)

    # --------------------------------------------------- kernel event loop
    def _note_fallback(self, reason: str) -> None:
        self._accel_fallback = reason
        self._kernel_armed = False
        self.tracer.note_event("accel-fallback", at=self.interactions, reason=reason)

    def _engage_pair_kernel(self) -> None:
        """Swap the Fenwick pair structures for the factorised kernel.

        Called once the active pair table grew past
        :data:`KERNEL_MIN_PAIRS`: the table is wide enough for the
        factorised kernel's O(changed) updates to beat the O(changed * K)
        Python walk.  The retired sampler's counters are kept for
        :meth:`sampler_stats`.
        """
        self._kernel_armed = False
        # The kernel's generator is seeded from the scheduler stream only
        # here, so a run whose pair table stays narrow draws exactly the
        # Fenwick path's stream.
        try:
            kernel = FactorisedPairKernel(
                dict(self._counts),
                self._can_change,
                seed=self._pair_rng.getrandbits(64),
            )
        except AccelCapacityError as error:
            self._note_fallback(str(error))
            return
        self._retire_sampler(self._sampler.stats(), "pruning", "accel-engage")
        self.tracer.note_event(
            "accel-engage", at=self.interactions, kernel="factorised-pair"
        )
        self._pair_kernel = kernel
        self._sampler = None
        self._pair_weights = {}
        self._active_weight = 0

    def _fallback_to_fenwick(self, reason: str) -> None:
        """Abandon the factorised kernel mid-run and rebuild the Fenwick path.

        Triggered when the kernel outgrows its capacity (an activity matrix
        wider than :attr:`~repro.engine.vectorized.FactorisedPairKernel.
        MATRIX_LIMIT` keys).  The configuration histogram is the source of
        truth, so rebuilding the Python pair table from it is exact; the
        reason is surfaced via :meth:`accel_info` and the retired kernel's
        counters are kept in the sampler record.
        """
        self._retire_sampler(self._pair_kernel.stats(), "pruning", "accel-fallback")
        self._pair_kernel = None
        self._note_fallback(reason)
        self._rebuild_pair_weights()

    def _advance_pruning_kernel(self, target: int) -> None:
        """Pruning-regime event loop over the factorised pair kernel."""
        kernel = self._pair_kernel
        simulator = self.simulator
        counts = self._counts
        tracer = self.tracer
        while self.interactions < target and not self.terminal:
            weight = kernel.active_weight()
            if weight <= 0:
                self.terminal = True
                break
            ordered_pairs = self.n * (self.n - 1)
            tic = perf_counter()
            skip = (
                0 if weight >= ordered_pairs else kernel.next_skip(ordered_pairs)
            )
            remaining = target - self.interactions
            if skip >= remaining:
                # The whole window is configuration-preserving; the
                # pending active event is re-sampled next call
                # (memorylessness).
                tracer.add("sampling", perf_counter() - tic, ops=0)
                self.interactions = target
                break
            self.interactions += skip + 1
            ident_a, ident_b = kernel.next_pair()
            toc = perf_counter()
            tracer.add("sampling", toc - tic)
            new_a, new_b, changed = self._apply_transition(ident_a, ident_b)
            tic = perf_counter()
            tracer.add("transition", tic - toc)
            self.applied_events += 1
            overflow: Optional[AccelCapacityError] = None
            if changed:
                try:
                    for ident in changed:
                        kernel.set_count(ident, counts.get(ident, 0))
                except AccelCapacityError as error:
                    # The event is already applied to the histogram; note
                    # the overflow but fire this event's hooks first so
                    # hook-based trackers never undercount.
                    overflow = error
                tracer.add("pair_weights", perf_counter() - tic)
            if simulator.hooks:
                self._fire_batch_hooks(ident_a, ident_b, new_a, new_b)
            if overflow is not None:
                self._fallback_to_fenwick(str(overflow))
                self.counter.total = self.interactions
                self.advance_to(target)
                return
        self.counter.total = self.interactions

    def _check_dense_fixed_point(self) -> None:
        """Detect the one provable fixed point available without pruning.

        With a conservative ``can_interaction_change`` the dense regime has
        no pair-weight table to drain to zero, but when a pure protocol
        collapses the whole population onto a single key whose
        self-interaction is a coin-free no-op, the configuration provably
        never changes again.  An unmemoised self-interaction is probed with
        a tape that forbids drawing, so the agent stream is untouched.
        """
        if not self._pure or len(self._counts) != 1:
            return
        ident = next(iter(self._counts))
        pair = ident << _ID_BITS | ident
        entry = self._memo.get(pair)
        if entry is None:
            key = self._keys[ident]
            self.transition_calls += 1
            try:
                new_a, new_b = self._delta(
                    key, key, _CoinTape(self.protocol.name, [], None)
                )
            except _CoinsDrawn:
                return
            if not (new_a == key and new_b == key):
                return
            entry = self._memo[pair] = (ident, ident)
        if entry == (ident, ident):
            self.terminal = True

    # ------------------------------------------------- population dynamics
    def register_state(self, state: Any) -> Hashable:
        """Key of ``state``, registering a lifted representative when needed.

        Keys produced outside the simulated chain (joining agents, fault
        rewrites) must pass through here so the key-lifting adapter learns a
        representative before the key first participates in a transition.
        """
        if self._lifted is not None:
            return self._lifted.register(state)
        return self.protocol.state_key(state)

    def _population_changed(
        self, changed: Tuple[int, ...] = (), full_rebuild: bool = False
    ) -> None:
        """Invalidate the sampling structures after the histogram changed.

        Pair weights are refreshed incrementally — ``O(changed * K)`` for
        ``K`` distinct keys — rather than rebuilt from scratch, so repeated
        churn on wide histograms stays cheap; ``full_rebuild`` covers
        wholesale edits (population restarts) where no small changed-key set
        exists.
        """
        self.counter.n = self.n
        self.terminal = False
        self.population_changes += 1
        if self._pair_kernel is not None:
            kernel = self._pair_kernel
            counts = self._counts
            try:
                if full_rebuild:
                    kernel.resync(counts)
                else:
                    for ident in changed:
                        kernel.set_count(ident, counts.get(ident, 0))
            except AccelCapacityError as error:
                self._fallback_to_fenwick(str(error))
                if self._active_weight <= 0:
                    self.terminal = True
                return
            if kernel.active_weight() <= 0:
                # Churn may land on an already-stable configuration.
                self.terminal = True
        elif self._prunes:
            if full_rebuild:
                self._rebuild_pair_weights()
            else:
                self._update_pair_weights(changed)
            if self._active_weight <= 0:
                # Churn may land on an already-stable configuration.
                self.terminal = True
        else:
            if full_rebuild:
                self._agents = list(self._counts.elements())
                self._owned.clear()
            self._sampler.resize(self.n)
            self._check_dense_fixed_point()

    def _changed_ids(self, changed_keys: set) -> Tuple[int, ...]:
        """Ids of a set of changed keys, in the set's iteration order.

        Population changes collect their keys in a set of *keys*: the order
        the sampling structures then meet new keys and pairs in follows it
        (see :meth:`_update_pair_weights`).
        """
        ids = self._ids
        return tuple(ids[key] for key in changed_keys)

    def _sample_victims(self, victims: int, rng: random.Random) -> List[int]:
        """Ids of ``victims`` distinct agents drawn uniformly at random.

        Pruning regime only (the dense regime draws indices into
        :attr:`_agents` with the same ``rng.sample``).  Victim tickets index
        agents in an arbitrary but fixed key order and are resolved against
        the current histogram in one cumulative pass — exchangeability of the
        uniform choice makes the order irrelevant.
        """
        tickets = sorted(rng.sample(range(self.n), victims))
        victim_ids: List[int] = []
        cumulative = 0
        ticket_index = 0
        for ident, count in self._counts.items():
            cumulative += count
            while ticket_index < len(tickets) and tickets[ticket_index] < cumulative:
                victim_ids.append(ident)
                ticket_index += 1
            if ticket_index == len(tickets):
                break
        return victim_ids

    def join(self, count: int) -> Dict[str, Any]:
        self._check_population(count)
        counts = self._counts
        changed: set = set()
        for _ in range(count):
            key = self.register_state(self.fresh_initial_state())
            ident = self._intern(key)
            counts[ident] += 1
            changed.add(key)
            if not self._prunes:
                self._agents.append(ident)
        self.n += count
        self._population_changed(self._changed_ids(changed))
        return {"joined": count, "n": self.n}

    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        self._check_population(count)
        if self.n - count < min_remaining:
            raise ConfigurationError(
                f"cannot remove {count} of {self.n} agents; at least "
                f"{min_remaining} must remain"
            )
        counts = self._counts
        keys = self._keys
        changed: set = set()
        if self._prunes:
            victims = self._sample_victims(count, rng)
        else:
            # Swap-removal in descending index order keeps pending indices
            # valid, as in AgentBackend.leave.
            agents = self._agents
            victims = []
            for index in sorted(rng.sample(range(self.n), count), reverse=True):
                victims.append(agents[index])
                agents[index] = agents[-1]
                agents.pop()
        for ident in victims:
            counts[ident] -= 1
            if not counts[ident]:
                del counts[ident]
                self._owned.pop(ident, None)
            changed.add(keys[ident])
        self.n -= count
        self._population_changed(self._changed_ids(changed))
        return {"left": count, "n": self.n}

    def restart_population(self) -> Dict[str, Any]:
        protocol = self.protocol
        if self._lifted is not None:
            initial: Counter = Counter()
            for agent_id in range(self.n):
                initial[self._lifted.register(protocol.initial_state(agent_id))] += 1
        else:
            initial = Counter(protocol.initial_key_counts(self.n))
        self._counts = self._intern_counts(initial)
        self._population_changed(full_rebuild=True)
        return {"restarted": self.n, "n": self.n}

    def skip_to(self, target: int) -> None:
        super().skip_to(target)
        self.counter.total = self.interactions

    # ----------------------------------------------------- failure injection
    def corrupt_histogram(
        self,
        victims: int,
        rewrite: Any,
        rng: random.Random,
    ) -> int:
        """Corrupt ``victims`` *distinct* agents drawn uniformly at random.

        The batch-mode analogue of mutating agent states in place: the
        victims are chosen without replacement over the population (exactly
        the agent-mode ``rng.sample`` fault model, marginalised to keys),
        each victim's key is removed from the histogram and replaced by
        ``rewrite(key, rng)``.  The pruning regime's pair structures are
        rebuilt afterwards; the dense regime rewrites the victims' slots.
        Returns the number of agents whose key actually changed.
        """
        if victims < 0:
            raise ConfigurationError("victims must be non-negative")
        if victims > self.n:
            raise ConfigurationError(
                f"cannot draw {victims} distinct agents from a population of {self.n}"
            )
        counts = self._counts
        keys = self._keys
        agents = self._agents
        if self._prunes:
            slots = None
            victim_ids = self._sample_victims(victims, rng)
        else:
            slots = rng.sample(range(self.n), victims)
            victim_ids = [agents[index] for index in slots]
        changed = 0
        for position, ident in enumerate(victim_ids):
            key = keys[ident]
            new_key = rewrite(key, rng)
            if new_key == key:
                continue
            if self._lifted is not None and not self._lifted.knows(new_key):
                # The lifted adapter can only simulate keys it has seen a
                # representative state for; an unseen key would crash the
                # next transition with an opaque KeyError.
                raise SimulationError(
                    f"key-level corruption produced {new_key!r}, which the "
                    "key-lifting adapter has no representative state for; "
                    "rewrite only to already-observed keys or implement the "
                    "native key API on the protocol"
                )
            counts[ident] -= 1
            if not counts[ident]:
                del counts[ident]
                self._owned.pop(ident, None)
            new_ident = self._intern(new_key)
            counts[new_ident] += 1
            if slots is not None:
                agents[slots[position]] = new_ident
            changed += 1
        if changed:
            self.terminal = False
            if self._pair_kernel is not None:
                try:
                    self._pair_kernel.resync(counts)
                except AccelCapacityError as error:
                    self._fallback_to_fenwick(str(error))
            elif self._prunes:
                self._rebuild_pair_weights()
            else:
                # A corruption may collapse the population onto one key.
                self._check_dense_fixed_point()
        return changed

    # ------------------------------------------------------------- observers
    def sampler_stats(self) -> Dict[str, Any]:
        """JSON-friendly record of the sampling structure this run ended on.

        Includes the regime, the live sampler's or kernel's counters, and
        the counters of every structure retired mid-run.
        """
        record: Dict[str, Any] = {"regime": "pruning" if self._prunes else "dense"}
        if self._pair_kernel is not None:
            record["strategy"] = "factorised"
            record.update(self._pair_kernel.stats())
        elif self._sampler is not None:
            record.update(self._sampler.stats())
        if self._retired_samplers:
            record["retired"] = list(self._retired_samplers)
        return record

    def accel_info(self) -> Dict[str, Any]:
        """JSON-friendly record of the pair kernel's state in this run.

        ``engaged`` says whether the factorised kernel drives the pruning
        hot loop right now; ``fallback_reason`` is present once a capacity
        fallback retired it.
        """
        record: Dict[str, Any] = {"engaged": self._pair_kernel is not None}
        if self._accel_fallback is not None:
            record["fallback_reason"] = self._accel_fallback
        return record

    def memo_stats(self) -> Dict[str, int]:
        """JSON-friendly counters of the interning table and transition memo.

        Every applied event is one ``hit`` (resolved from the memo) or one
        ``miss`` (``delta_key`` evaluated); ``pairs`` counts memoised id
        pairs and ``coin_nodes`` their coin branch points.  A protocol that
        does not declare pure key transitions misses on every event.
        """
        return {
            "interned_keys": len(self._keys),
            "pairs": len(self._memo),
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "coin_nodes": self._coin_nodes,
        }

    def state_key_counts(self) -> Counter:
        keys = self._keys
        return Counter({keys[ident]: count for ident, count in self._counts.items()})

    def output_counts(self) -> Counter:
        outputs = self._outputs
        output_counts: Counter = Counter()
        for ident, count in self._counts.items():
            output_counts[outputs[ident]] += count
        return output_counts

    def outputs(self) -> List[Any]:
        expanded: List[Any] = []
        for output, count in self.output_counts().items():
            expanded.extend([output] * count)
        return expanded

    def convergence_view(self) -> Counter:
        return self.output_counts()
