"""Simulation backends: per-agent and batched configuration-vector execution.

The population model is a Markov chain over *configurations* — multisets of
agent states.  Two execution strategies for that chain are provided:

* :class:`AgentBackend` materialises one mutable state object per agent and
  executes one Python-level ``transition()`` call per interaction.  It is the
  reference implementation, supports arbitrary schedulers and per-agent
  participation accounting, and is exact at the agent level.

* :class:`BatchBackend` collapses the population into a histogram
  ``state_key -> count`` (the configuration-as-multiset view of the
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
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, repeat, starmap
from operator import mul
from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

import abc
import random

from ..obs.trace import RunTracer
from .errors import ConfigurationError, SimulationError
from .metrics import AggregateInteractionCounter, InteractionCounter, StateSpaceTracker
from .protocol import Protocol
from .samplers import AgentPairSampler
from .vectorized import FactorisedPairKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from .scheduler import Scheduler
    from .simulator import Simulator

__all__ = [
    "Backend",
    "AgentBackend",
    "BatchBackend",
    "LiftedKeyTransitions",
    "BACKEND_NAMES",
]

#: Valid values for the ``backend=`` argument of the simulator.
BACKEND_NAMES = ("agent", "batch", "auto")

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
    :class:`SimulationError` naming the protocol.  The dense loop keeps one
    tape per window and rewinds it for each miss by setting a new
    :attr:`drawn` list and :attr:`replay` path.
    """

    __slots__ = ("drawn", "replay", "_source", "_protocol")

    def __init__(
        self,
        protocol: str,
        replay: Sequence[Tuple[int, int]],
        source: Optional[random.Random],
    ) -> None:
        self.drawn: List[Tuple[int, int]] = []
        self.replay = replay
        self._source = source
        self._protocol = protocol

    def getrandbits(self, bits: int) -> int:
        drawn = self.drawn
        index = len(drawn)
        if index < len(self.replay):
            recorded_bits, value = self.replay[index]
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
        #: Keys observed lately (up to ``n``, then cleared): most agents
        #: leave an interaction with a key observed not long before, and a
        #: key found here skips the per-component observation.
        self._recent: set = set()
        if track_state_space:
            key = self.protocol.state_key
            for state in self.states:
                self._observe(key(state))

    def _observe(self, key: Hashable) -> None:
        recent = self._recent
        if key not in recent:
            if len(recent) >= self.n:
                recent.clear()
            recent.add(key)
            self.state_space.observe(key)

    def step(self) -> Tuple[int, int]:
        """Execute one interaction; return the (initiator, responder) pair."""
        tracer = self.tracer
        tic = perf_counter()
        initiator, responder = self.scheduler.next_pair(
            self.n, self._scheduler_rng, self.interactions
        )
        tracer.add("sampling", perf_counter() - tic)
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
            self._observe(key(self.states[initiator]))
            self._observe(key(self.states[responder]))
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
                self._observe(protocol.state_key(state))
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
                self._observe(key(state))
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
                self._observe(new_key)
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

    The pair-weight table is never materialised: weights factorise as
    ``c_a c_b``, and the :class:`~repro.engine.vectorized.FactorisedPairKernel`
    keeps the counts, the activity lists and the row sums ``s = A c``.  An
    event changes the multiplicities of at most four keys, each one column
    walk of row-sum updates.  When ``W == 0`` the configuration is a fixed
    point and the backend reports :attr:`~Backend.terminal`.

    Truncating a geometric skip at an interaction budget or checkpoint
    boundary and re-sampling later is exact by memorylessness.

    Keys are interned to dense integer ids on first sight: the histogram,
    the agent array, the pair kernel and the transition memo all work on ids,
    and keys cross back only at the protocol boundary (``delta_key`` and
    ``can_interaction_change`` on a cache miss, ``output_key`` once per
    interning) and in public views and fault rewrites.  The id
    histogram, :attr:`_counts`, is a plain ``dict`` of id to positive count
    (an id no agent holds has no entry).  It is not a ``Counter``, whose
    missing-key and delete paths run in Python.  It is updated by the same operations in the
    same order a key histogram would be, so every structure built from it
    sees a renamed copy of the key sequence.

    An id that no agent holds and no memo entry names is *released*: dropped
    from the intern table and handed to the next new key, so the table holds
    the live keys and the memo's, not every key the run has seen.  Whether
    the memo names an id is tracked by *pinning*, off the hot path: an id
    interned while recording (below) is pinned, the live ids are pinned on
    each switch into recording mode, and so are a fixed-point self entry's
    id and the ids of every recorded result.  A pinned id is never released.
    Only an id that loses its last agent and is not pinned is released: at
    the end of the unrecorded stretch (below) that empties it and at the
    end of ``leave``, ``corrupt_histogram`` and restarts.  While recording
    every live id is pinned.
    So runs that always record — the pruning regime, whose kernel and
    ``_can_change`` cache key on ids, and dense runs without a decoder —
    release nothing.  Ids do not reach any stream, so streams are those of
    a table that keeps every key.

    For a protocol declaring
    :attr:`~repro.engine.protocol.Protocol.pure_key_transitions` the memo
    maps each id pair to the ``(new_a, new_b)`` ids of its transition or,
    when ``delta_key`` flips coins, to a tree with one branch per drawn
    value.  A hit draws the same ``getrandbits`` from the agent stream that
    ``delta_key`` would and follows the branch; a missing branch is
    evaluated once, replaying the values already drawn.  The agent stream is
    therefore consumed exactly as without the memo.  Other protocols call
    ``delta_key`` on every event, and so do the dense regime's unrecorded
    stretches (below), without recording.

    Two sampling regimes are used, chosen at construction:

    * **Pruning** — the protocol overrides ``can_interaction_change``, so the
      active pair weights above are worth maintaining: skips are long, and
      the skip and the active pair type are drawn by the factorised kernel,
      built at construction and fed by the pair stream.  Each advance window
      runs as one fused loop (:meth:`_advance_pruning_kernel`) with the
      kernel's lists and its own state in locals.  The loop draws the skip
      and the pair itself, looks up a plain memo hit, updates the histogram
      and pushes the changed counts inline, calling into the kernel only
      for a new key or a compaction (after which it rebinds the lists).
      Its phase timers are read per event but charged per window.
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
      phase timers per window rather than per event.  Its recorded loop
      (:meth:`_advance_recorded`) resolves every memo entry itself, misses
      and coin walks included, with one coin tape per window; the pruning
      loop hands entries that are not plain hits to :meth:`_resolve`.
      This is the regime
      of the composed counting protocols, whose no-op analysis is out of
      reach of a per-pair predicate.

    **Live states** (dense regime with a decoder).  For a protocol whose
    key-level API is a :meth:`~repro.engine.protocol.Protocol.state_from_key`
    decoder under the base ``delta_key``, decoding both keys is most of an
    evaluation.  The backend therefore keeps one live state per slot of
    :attr:`_agents`, ``None`` meaning "decode on next use": a
    post-interaction state object an evaluation produced, referenced by
    nothing else.  An evaluation (a recorded miss or a stretch event) hands
    the two slots' states to
    ``delta_key`` (decoding a slot that holds none), which mutates them by
    ``transition``, and puts them back in the slots that hold their keys (a
    swap exchanges them).  A memo hit that re-keys a slot clears its state,
    and ``join``, ``leave``, ``corrupt_histogram`` and restarts keep the
    list in step with :attr:`_agents`.  A live state differs from a decoded
    one only in bookkeeping its key drops (the raw phase counter, see
    :mod:`repro.counting.keys`), so streams are those of decoding every
    evaluation.  The pruning regime, the lifted adapter and protocols
    overriding ``delta_key`` hold no states.

    **Unrecorded stretches** (dense regime with a decoder).  Theorem 2's
    CountExact uses Õ(n) states: almost every agent holds a key of its own,
    the memo hits on a few percent of events and grows by one pair per
    miss.  So while more than half the agents hold distinct keys
    (``2 * len(_counts) > n``) the backend runs *stretches* of events that
    record nothing.  A stretch keeps a key per slot; each of its events
    calls ``delta_key`` on the two slots' live states with the agent stream
    itself, applies the swap rule to the post-keys and hands the changed
    ones to the state-space census, with no memo lookup, interning,
    histogram upkeep or release.  A pure protocol draws from the stream the
    coins a memo walk would, so streams are those of the memo regime.  A
    stretch ends at the window's end, after ``n`` events, or right after a
    configuration-changing event whose two post-keys are equal (the only
    kind that can leave one live key, so the dense fixed point stops the
    run at the same interaction); the slots it changed are then re-keyed
    into ids and the histogram in one pass and dead unpinned ids released.
    The ``n / 2`` rule is decided at the start of each window, at the end
    of each stretch and after a recorded event that leaves more than
    ``n / 2`` live keys; switching moves no state.

    The protocol picks the regime; there is no knob.  :meth:`sampler_stats`
    and :meth:`memo_stats` report the draw path's and the memo's counters
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
        #: Events of unrecorded stretches (see class docstring), the number
        #: of entries into and exits from stretch mode, and whether the run
        #: is outside it (memo misses are recorded).
        self._unrecorded = 0
        self._mode_switches = 0
        self._recording = True
        # Interning: id -> key (``None`` once released), key -> id, id -> output.
        self._keys: List[Hashable] = []
        self._ids: Dict[Hashable, int] = {}
        self._outputs: List[Any] = []
        #: Released ids, reused by the next new keys; ids never released
        #: (see class docstring); and the number of releases.
        self._free: List[int] = []
        self._pinned: set = set()
        self._released = 0
        #: The configuration: a plain dict of interned key id -> positive
        #: count (no zero entries; see class docstring).
        self._counts: Dict[int, int] = self._intern_counts(initial)
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
        # ordered pair active, so the pair kernel's activity lists would hold
        # O(K^2) entries for zero skipping; such protocols use the dense regime,
        # which samples the two participants straight from the key histogram.
        self._prunes = (
            type(protocol).can_interaction_change is not Protocol.can_interaction_change
        )
        #: Configuration-changing events actually applied; the complement
        #: of ``interactions`` measures the geometric-skip efficiency.
        self.applied_events: int = 0
        #: Pruning regime: the skip and pair-type draws.  Dense regime: the
        #: sampler over agent index pairs.  Each is None in the other regime.
        self._pair_kernel: Optional[FactorisedPairKernel] = None
        self._sampler: Optional[AgentPairSampler] = None
        #: Dense regime: the id of every agent, in no meaningful order (a
        #: multiset equal to ``_counts``).  Empty in the pruning regime.
        self._agents: List[int] = []
        #: Dense regime with a decoder: the live state of each slot of
        #: ``_agents`` (``None``: decode on next use; see class docstring).
        #: ``None`` in every other run.
        self._states: Optional[List[Any]] = None
        #: The decoder of slots with no live state; ``None`` turns live
        #: states off (pruning regime, lifted adapter, ``delta_key``
        #: override).
        self._decode: Optional[Callable[[Hashable], Any]] = None
        if self._prunes:
            self._pair_kernel = FactorisedPairKernel(
                self._counts, self._can_change, scheduler_rng
            )
        else:
            self._agents = self._agent_array()
            self._sampler = AgentPairSampler(self.n)
            if self._lifted is None and type(protocol).delta_key is Protocol.delta_key:
                self._decode = protocol.state_from_key
                self._states = [None] * self.n
            # An initial configuration may already be the provable fixed
            # point (single key, coin-free no-op self-interaction).
            self._check_dense_fixed_point()

    # ------------------------------------------------------------- interning
    def _intern(self, key: Hashable) -> int:
        """Id of ``key``, interning it when new."""
        ident = self._ids.get(key)
        if ident is None:
            ident = self._intern_new(key)
        return ident

    def _intern_new(self, key: Hashable) -> int:
        """Intern ``key``, which has no id: it takes a released id or the next one.

        A new key is observed, and pinned while recording.
        """
        output = self._output_key(key)
        free = self._free
        keys = self._keys
        if free:
            ident = free.pop()
            keys[ident] = key
            self._outputs[ident] = output
        else:
            ident = len(keys)
            keys.append(key)
            self._outputs.append(output)
        self._ids[key] = ident
        if self._recording:
            self._pinned.add(ident)
        if self.track_state_space:
            self.state_space.observe(key)
        return ident

    def _release(self, ident: int) -> None:
        """Free ``ident``, which no agent holds and no memo entry names."""
        keys = self._keys
        del self._ids[keys[ident]]
        keys[ident] = None
        self._outputs[ident] = None
        self._free.append(ident)
        self._released += 1

    def _release_dead(self, idents: Iterable[int]) -> None:
        """Release each of ``idents`` that is interned, unpinned and unheld."""
        counts = self._counts
        pinned = self._pinned
        keys = self._keys
        ids = self._ids
        for ident in idents:
            if ident not in counts and ident not in pinned and ids.get(keys[ident]) == ident:
                self._release(ident)

    def _intern_counts(self, counts: Counter) -> Dict[int, int]:
        """A key histogram renamed to ids, in the same order, zero counts dropped."""
        return {self._intern(key): count for key, count in counts.items() if count > 0}

    def _agent_array(self) -> List[int]:
        """The ids of the histogram expanded to one per agent, in its order."""
        return list(chain.from_iterable(starmap(repeat, self._counts.items())))

    # ------------------------------------------------------------ transitions
    def _resolve(self, ident_a: int, ident_b: int, entry: Any) -> Tuple[int, int]:
        """Post-interaction ids of ``(a, b)`` whose memo ``entry`` is not a hit.

        Pruning regime only (the dense loop resolves its entries inline).
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
            if entry is not None:
                self._memo_hits += 1
                return entry
        self._memo_misses += 1
        return self._evaluate(ident_a, ident_b, path)

    def _evaluate(
        self, ident_a: int, ident_b: int, path: List[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Call ``delta_key`` on a pruning-regime memo miss; memoise it when pure.

        ``path`` holds the coin values already drawn for this pair, which
        the tape replays before drawing fresh ones from the agent stream.
        """
        keys = self._keys
        self.transition_calls += 1
        pure = self._pure
        rng = _CoinTape(self.protocol.name, path, self._agent_rng) if pure else self._agent_rng
        new_a, new_b = self._delta(keys[ident_a], keys[ident_b], rng)
        result = (self._intern(new_a), self._intern(new_b))
        if pure:
            # The entry's ids stay interned.
            self._pinned.update(result)
            pair = ident_a << _ID_BITS | ident_b
            if rng.drawn or path:
                self._record_coins(pair, result, rng)
            else:
                self._memo[pair] = result
        return result

    def _record_coins(self, pair: int, result: Tuple[int, int], tape: _CoinTape) -> None:
        """Store ``result`` under ``pair`` at the end of the coin path ``tape`` drew.

        Grows the pair's coin tree by the nodes the path has not reached
        yet.  A path shorter than the one the memo walk replayed breaks the
        ``pure_key_transitions`` declaration.
        """
        drawn = tape.drawn
        if len(drawn) < len(tape.replay):
            raise tape.impure(
                f"drew {len(drawn)} coins where an earlier evaluation of the "
                f"same key pair drew at least {len(tape.replay)}"
            )
        memo = self._memo
        node = memo.get(pair)
        if node is None:
            node = memo[pair] = self._coin_node(drawn[0][0])
        for index in range(len(drawn) - 1):
            value = drawn[index][1]
            child = node.children.get(value)
            if child is None:
                child = node.children[value] = self._coin_node(drawn[index + 1][0])
            node = child
        node.children[drawn[-1][1]] = result

    def _coin_node(self, bits: int) -> _CoinNode:
        self._coin_nodes += 1
        return _CoinNode(bits)

    # -------------------------------------------------------------- activity
    def _can_change(self, ident_a: int, ident_b: int) -> bool:
        cached = self._can_change_cache.get((ident_a, ident_b))
        if cached is None:
            keys = self._keys
            cached = bool(
                self.protocol.can_interaction_change(keys[ident_a], keys[ident_b])
            )
            self._can_change_cache[(ident_a, ident_b)] = cached
        return cached

    # -------------------------------------------------------------- stepping
    def advance_to(self, target: int) -> None:
        if self._prunes:
            self._advance_pruning_kernel(target)
        else:
            self._advance_dense(target)

    def _advance_dense(self, target: int) -> None:
        """Dense-regime event loop: every interaction is one event.

        Runs the window as recorded events (:meth:`_advance_recorded`) and
        unrecorded stretches (:meth:`_stretch`).  The ``n / 2`` rule (see
        class docstring) is decided at the start of the window and at the
        end of each stretch; the recorded loop hands over to a stretch after
        an event that leaves more than half the agents on distinct keys.
        Consecutive stretches of one window share one per-slot key list.
        """
        stretches = self._decode is not None
        half = self.n // 2
        slot_keys: Optional[List[Hashable]] = None
        while self.interactions < target and not self.terminal:
            if stretches and (len(self._counts) > half) is self._recording:
                self._recording = not self._recording
                self._mode_switches += 1
                if self._recording:
                    # Live ids may become memo sources from now on.
                    self._pinned.update(self._counts)
            if self._recording:
                slot_keys = None
                self._advance_recorded(target, half if stretches else self.n)
            else:
                if slot_keys is None:
                    slot_keys = list(map(self._keys.__getitem__, self._agents))
                self._stretch(min(target, self.interactions + self.n), slot_keys)

    def _advance_recorded(self, target: int, limit: int) -> None:
        """Recorded dense events until ``target``, terminal or ``limit`` live keys.

        One loop with its state bound to locals.  Each interaction draws
        two agent indices from the
        :class:`~repro.engine.samplers.AgentPairSampler`, reads the two
        slots of :attr:`_agents` and looks the id pair up in the memo.  A
        plain ``(new_a, new_b)`` hit costs one dict lookup.  Every other
        entry is resolved in the loop itself: it walks the coin nodes with
        the agent stream's ``getrandbits`` and, on a first-sight pair or a
        value never drawn before, calls ``delta_key`` with the window's one
        coin tape rewound to the walked path, the slots' live states handed
        over (a slot without one is decoded).  Post-keys are interned, the
        states go back to their slots (a swap trades them), and a pure
        result is pinned and stored: a coin-free one by one dict write, one
        at the end of a coin path by :meth:`_record_coins`.  ``delta_key``
        is read when the window starts, so a wrapper set on the backend
        after construction sees every evaluation.

        The histogram and the two slots are rewritten only when the
        configuration changed, the histogram by the same operations in the
        same order as the pruning loop.  Every live id is pinned while
        recording, so none is released here.  The loop returns after a
        configuration-changing event that leaves more than ``limit`` live
        keys.

        Phase timers run once per call and around each entry that is not a
        plain hit, not per event; :mod:`repro.obs.trace` says what each
        phase then covers.  An event that collapses the population onto a
        provable fixed point (:attr:`~Backend.terminal`) ends the loop.
        """
        interactions = self.interactions
        sample = self._sampler.sample
        pair_rng = self._pair_rng
        getrandbits = self._agent_rng.getrandbits
        memo = self._memo
        memo_get = memo.get
        keys = self._keys
        ids_get = self._ids.get
        intern_new = self._intern_new
        pin = self._pinned.add
        record_coins = self._record_coins
        delta = self._delta
        decode = self._decode
        pure = self._pure
        # One tape per window, rewound for each miss; impure protocols draw
        # from the agent stream itself.
        tape = _CoinTape(self.protocol.name, (), self._agent_rng) if pure else None
        rng = tape if pure else self._agent_rng
        coin_node = _CoinNode
        agents = self._agents
        states = self._states
        counts = self._counts
        count_of = counts.get
        id_bits = _ID_BITS
        clock = perf_counter
        start = interactions
        hits = misses = changes = 0
        resolve_s = 0.0
        window_started = clock()
        try:
            while interactions < target:
                interactions += 1
                initiator, responder = sample(pair_rng)
                ident_a = agents[initiator]
                ident_b = agents[responder]
                pair = ident_a << id_bits | ident_b
                entry = memo_get(pair)
                if entry.__class__ is tuple:
                    hits += 1
                    new_a, new_b = entry
                    if states is not None:
                        # A slot whose key the hit changes decodes on next use.
                        if new_a != ident_a:
                            states[initiator] = None
                        if new_b != ident_b:
                            states[responder] = None
                else:
                    tic = clock()
                    path = ()
                    if entry is not None:
                        path = []
                        while entry.__class__ is coin_node:
                            bits = entry.bits
                            value = getrandbits(bits)
                            path.append((bits, value))
                            entry = entry.children.get(value)
                    if entry is not None:
                        # The coin walk ended on a recorded result.
                        hits += 1
                        new_a, new_b = entry
                        if states is not None:
                            if new_a != ident_a:
                                states[initiator] = None
                            if new_b != ident_b:
                                states[responder] = None
                    else:
                        misses += 1
                        if pure:
                            tape.drawn = []
                            tape.replay = path
                        if states is None:
                            key_a, key_b = delta(keys[ident_a], keys[ident_b], rng)
                        else:
                            state_a = states[initiator]
                            if state_a is None:
                                state_a = decode(keys[ident_a])
                            state_b = states[responder]
                            if state_b is None:
                                state_b = decode(keys[ident_b])
                            key_a, key_b = delta(
                                keys[ident_a], keys[ident_b], rng, state_a, state_b
                            )
                        new_a = ids_get(key_a)
                        if new_a is None:
                            new_a = intern_new(key_a)
                        new_b = ids_get(key_b)
                        if new_b is None:
                            new_b = intern_new(key_b)
                        if states is not None:
                            if new_a == ident_b and new_b == ident_a:
                                # A swap keeps both slots' ids: trade the states.
                                states[initiator] = state_b
                                states[responder] = state_a
                            else:
                                states[initiator] = state_a
                                states[responder] = state_b
                        if pure:
                            # The entry's ids stay interned.
                            pin(new_a)
                            pin(new_b)
                            if tape.drawn or path:
                                record_coins(pair, (new_a, new_b), tape)
                            else:
                                memo[pair] = (new_a, new_b)
                    resolve_s += clock() - tic
                if (new_a != ident_a or new_b != ident_b) and (
                    new_a != ident_b or new_b != ident_a
                ):
                    changes += 1
                    counts[ident_a] -= 1
                    counts[ident_b] -= 1
                    counts[new_a] = count_of(new_a, 0) + 1
                    counts[new_b] = count_of(new_b, 0) + 1
                    if not counts[ident_a]:
                        del counts[ident_a]
                    if count_of(ident_b) == 0:
                        del counts[ident_b]
                    agents[initiator] = new_a
                    agents[responder] = new_b
                    live = len(counts)
                    if live == 1:
                        self._check_dense_fixed_point()
                        if self.terminal:
                            break
                    elif live > limit:
                        break
        finally:
            window_s = clock() - window_started
            events = interactions - start
            self.interactions = interactions
            self.counter.total = interactions
            self.applied_events += events
            self._memo_hits += hits
            self._memo_misses += misses
            self.transition_calls += misses
            tracer = self.tracer
            tracer.add("sampling", window_s - resolve_s, ops=events)
            tracer.add("transition", resolve_s, ops=events)
            if changes:
                tracer.add("pair_weights", 0.0, ops=changes)

    def _stretch(self, end: int, slot_keys: List[Hashable]) -> None:
        """One unrecorded stretch (see class docstring), ending by ``end``.

        ``slot_keys`` holds the key of every slot of :attr:`_agents` and
        takes each changed post-key; :meth:`_rekey` moves the slots the
        stretch changed to their ids when it ends.  An event is decided by
        "initiator unchanged", then "responder unchanged"; the swap test
        runs only when the initiator's key changed.  A changed tuple key no
        wider than the census's component sets goes into them directly.
        """
        interactions = self.interactions
        sample = self._sampler.sample
        pair_rng = self._pair_rng
        delta = self._delta
        decode = self._decode
        agent_rng = self._agent_rng
        states = self._states
        census = self.track_state_space
        observe = self.state_space.observe
        sets = self.state_space.component_sets
        add = set.add
        width = len(sets)
        changed: List[int] = []
        mark = changed.append
        clock = perf_counter
        start = interactions
        changes = 0
        transition_s = 0.0
        stretch_started = clock()
        try:
            while interactions < end:
                interactions += 1
                initiator, responder = sample(pair_rng)
                key_a = slot_keys[initiator]
                key_b = slot_keys[responder]
                tic = clock()
                state_a = states[initiator]
                if state_a is None:
                    state_a = states[initiator] = decode(key_a)
                state_b = states[responder]
                if state_b is None:
                    state_b = states[responder] = decode(key_b)
                new_a, new_b = delta(key_a, key_b, agent_rng, state_a, state_b)
                transition_s += clock() - tic
                if new_a == key_a:
                    if new_b == key_b:
                        continue
                elif new_a == key_b and new_b == key_a:
                    # A swap keeps both slots' keys: trade the states.
                    states[initiator] = state_b
                    states[responder] = state_a
                    continue
                else:
                    slot_keys[initiator] = new_a
                    mark(initiator)
                    if census:
                        if new_a.__class__ is tuple and len(new_a) <= width:
                            any(map(add, sets, new_a))
                        else:
                            observe(new_a)
                            width = len(sets)
                if new_b != key_b:
                    slot_keys[responder] = new_b
                    mark(responder)
                    if census:
                        if new_b.__class__ is tuple and len(new_b) <= width:
                            any(map(add, sets, new_b))
                        else:
                            observe(new_b)
                            width = len(sets)
                changes += 1
                if new_a == new_b:
                    break
        finally:
            self.interactions = interactions
            self.counter.total = interactions
            events = interactions - start
            self.applied_events += events
            self._unrecorded += events
            self.transition_calls += events
            self._rekey(changed, slot_keys)
            tracer = self.tracer
            tracer.add("sampling", clock() - stretch_started - transition_s, ops=events)
            tracer.add("transition", transition_s, ops=events)
            if changes:
                tracer.add("pair_weights", 0.0, ops=changes)

    def _rekey(self, slots: Iterable[int], slot_keys: List[Hashable]) -> None:
        """Move ``slots`` to the ids of their ``slot_keys`` in one pass.

        Each key is hashed once, by ``dict.setdefault`` against the id a new
        key would take.  A new key is interned as :meth:`_intern_new` would,
        but unpinned and not observed again (the stretch observed it); then
        the id the slot left is released, as :meth:`_release` would, if no
        agent holds it and no pin keeps it.
        """
        agents = self._agents
        counts = self._counts
        count_of = counts.get
        ids = self._ids
        ids_setdefault = ids.setdefault
        keys = self._keys
        outputs = self._outputs
        output_key = self._output_key
        free = self._free
        pinned = self._pinned
        released = 0
        for slot in set(slots):
            key = slot_keys[slot]
            # The id a new key takes; no interned key holds it.
            fresh = free[-1] if free else len(keys)
            ident = ids_setdefault(key, fresh)
            old = agents[slot]
            if ident == old:
                continue
            if ident == fresh:
                if free:
                    free.pop()
                    keys[ident] = key
                    outputs[ident] = output_key(key)
                else:
                    keys.append(key)
                    outputs.append(output_key(key))
            agents[slot] = ident
            counts[ident] = count_of(ident, 0) + 1
            if counts[old] > 1:
                counts[old] -= 1
            else:
                del counts[old]
                if old not in pinned:
                    del ids[keys[old]]
                    keys[old] = outputs[old] = None
                    free.append(old)
                    released += 1
        self._released += released
        if len(counts) == 1:
            self._check_dense_fixed_point()

    # --------------------------------------------------- kernel event loop
    def _advance_pruning_kernel(self, target: int) -> None:
        """Pruning-regime event loop over the factorised pair kernel.

        One loop per window with the kernel's lists bound to locals (see
        :mod:`repro.engine.vectorized`), running every step of an event
        inline with no per-event call into the kernel: the refresh of the
        active weight ``W`` and the cumulative row proposals after a count
        change, the ``Geometric(W / T)`` skip, the row and partner draws
        with their diagonal rejection, and each count push with its column
        walk of row sums.  These make the same draws in the same order as
        :meth:`~FactorisedPairKernel.next_skip`,
        :meth:`~FactorisedPairKernel.next_pair` and
        :meth:`~FactorisedPairKernel.set_count`.  The id pair is looked up
        in the memo: a plain ``(new_a, new_b)`` hit costs one dict lookup,
        coin nodes and misses go through :meth:`_resolve`.  A
        configuration-changing event updates the histogram (the same
        operations in the same order as the dense loop) and pushes the new
        count of each distinct touched id once, in first-appearance order of
        ``(a, b, new_a, new_b)``.

        Two rare pushes go through the kernel: an id with no slot
        (:meth:`~FactorisedPairKernel.ensure_key` appends to the bound lists
        in place) and a count that falls to 0, which may compact the kernel
        and replace every list, so the locals are rebound right after it,
        before the event's other pushes.  The cached weight, row proposals,
        diagonal mass and counters are written back when the window ends.

        Phase timers are read per event and charged once per window.
        """
        interactions = self.interactions
        if interactions >= target or self.terminal:
            return
        kernel = self._pair_kernel
        draw = kernel._random
        keys = kernel._keys
        slot_of = kernel._slots.get
        c = kernel._c
        s = kernel._s
        rows = kernel._rows
        cols = kernel._cols
        diag = kernel._diag
        count_at = c.__getitem__
        diag_mass = kernel._diag_mass
        weight = kernel._active_weight
        cum = kernel._row_cum
        compact_min = kernel.COMPACT_MIN_SIZE
        log = math.log
        log1p = math.log1p
        bisect = bisect_right
        cumulative = accumulate
        product = mul
        memo_get = self._memo.get
        resolve = self._resolve
        counts = self._counts
        count_of = counts.get
        ordered_pairs = self.n * (self.n - 1)
        id_bits = _ID_BITS
        clock = perf_counter
        events = hits = changes = draws = updates = rejections = 0
        sampling_s = transition_s = pair_weights_s = 0.0
        skipped_past = False
        try:
            while interactions < target:
                if weight is None:
                    cum = list(cumulative(map(product, c, s)))
                    weight = (cum[-1] if cum else 0) - diag_mass
                if weight <= 0:
                    self.terminal = True
                    break
                tic = clock()
                if weight >= ordered_pairs:
                    skip = 0
                else:
                    skip = int(log(1.0 - draw()) / log1p(-weight / ordered_pairs))
                    if skip >= target - interactions:
                        # The whole window is configuration-preserving; the
                        # pending active event is re-sampled next call
                        # (memorylessness).
                        sampling_s += clock() - tic
                        skipped_past = True
                        interactions = target
                        break
                interactions += skip + 1
                draws += 1
                total = cum[-1]
                last = len(cum) - 1
                while True:
                    row = bisect(cum, draw() * total)
                    if row > last:
                        row = last
                    # Float end-corner: walk back over zero-width intervals.
                    while row and cum[row] == cum[row - 1]:
                        row -= 1
                    columns = rows[row]
                    partner_cum = list(cumulative(map(count_at, columns)))
                    position = bisect(partner_cum, draw() * partner_cum[-1])
                    end = len(partner_cum) - 1
                    if position > end:
                        position = end
                    while position and partner_cum[position] == partner_cum[position - 1]:
                        position -= 1
                    partner = columns[position]
                    if partner != row:
                        break
                    count = c[row]
                    if count > 1 and draw() * count < count - 1:
                        break
                    # Rejected diagonal proposal: redraw the whole pair.
                    rejections += 1
                ident_a = keys[row]
                ident_b = keys[partner]
                toc = clock()
                entry = memo_get(ident_a << id_bits | ident_b)
                if entry.__class__ is tuple:
                    hits += 1
                    new_a, new_b = entry
                else:
                    new_a, new_b = resolve(ident_a, ident_b, entry)
                events += 1
                if (new_a != ident_a or new_b != ident_b) and (
                    new_a != ident_b or new_b != ident_a
                ):
                    counts[ident_a] -= 1
                    counts[ident_b] -= 1
                    counts[new_a] = count_of(new_a, 0) + 1
                    counts[new_b] = count_of(new_b, 0) + 1
                    if not counts[ident_a]:
                        del counts[ident_a]
                    if count_of(ident_b) == 0:
                        del counts[ident_b]
                    tac = clock()
                    touched = (ident_a,) if ident_b == ident_a else (ident_a, ident_b)
                    if new_a != ident_a and new_a != ident_b:
                        touched += (new_a,)
                    if new_b != ident_a and new_b != ident_b and new_b != new_a:
                        touched += (new_b,)
                    weight = None
                    for ident in touched:
                        count = count_of(ident, 0)
                        slot = slot_of(ident)
                        if slot is None:
                            slot = kernel.ensure_key(ident)
                        old = c[slot]
                        if count == old:
                            continue
                        updates += 1
                        c[slot] = count
                        delta = count - old
                        for other in cols[slot]:
                            s[other] += delta
                        if diag[slot]:
                            diag_mass += delta
                        if not count or not old:
                            # Only a slot dying, revived or new can tip the
                            # kernel's compaction rule.
                            kernel._dead += 1 if not count else -1
                            if len(c) >= compact_min and kernel._dead * 2 > len(c):
                                kernel._compact()
                                keys = kernel._keys
                                slot_of = kernel._slots.get
                                c = kernel._c
                                s = kernel._s
                                rows = kernel._rows
                                cols = kernel._cols
                                diag = kernel._diag
                                count_at = c.__getitem__
                                diag_mass = kernel._diag_mass
                    changes += 1
                    pair_weights_s += clock() - tac
                else:
                    tac = clock()
                sampling_s += toc - tic
                transition_s += tac - toc
        finally:
            kernel._diag_mass = diag_mass
            kernel._active_weight = weight
            kernel._row_cum = None if weight is None else cum
            kernel.draws += draws
            kernel.updates += updates
            kernel.update_columns += updates
            kernel.rejections += rejections
            self.interactions = interactions
            self.counter.total = interactions
            self.applied_events += events
            self._memo_hits += hits
            tracer = self.tracer
            if events or skipped_past:
                tracer.add("sampling", sampling_s, ops=events)
            if events:
                tracer.add("transition", transition_s, ops=events)
            if changes:
                tracer.add("pair_weights", pair_weights_s, ops=changes)

    def _check_dense_fixed_point(self) -> None:
        """Detect the one provable fixed point available without pruning.

        With a conservative ``can_interaction_change`` the dense regime has
        no active weight to drain to zero, but when a pure protocol
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
            self._pinned.add(ident)
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
        """Refresh the sampling structures after the histogram changed.

        The kernel takes the new counts of the ``changed`` ids, or of every
        id after a wholesale edit (``full_rebuild``, population restarts);
        the dense regime resizes its agent-pair sampler.  Below two agents
        there is nothing to sample, and the next join resizes: a whole
        population :meth:`replace` passes through there between its leave
        and its join.
        """
        self.counter.n = self.n
        self.terminal = False
        self.population_changes += 1
        kernel = self._pair_kernel
        if kernel is not None:
            counts = self._counts
            if full_rebuild:
                kernel.resync(counts)
            else:
                for ident in changed:
                    kernel.set_count(ident, counts.get(ident, 0))
            if kernel.active_weight() <= 0:
                # Churn may land on an already-stable configuration.
                self.terminal = True
        else:
            if full_rebuild:
                self._agents = self._agent_array()
                if self._states is not None:
                    self._states = [None] * self.n
            if self.n < 2:
                return
            self._sampler.resize(self.n)
            self._check_dense_fixed_point()

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
        changed: Dict[int, None] = {}
        for _ in range(count):
            ident = self._intern(self.register_state(self.fresh_initial_state()))
            counts[ident] = counts.get(ident, 0) + 1
            changed[ident] = None
            if not self._prunes:
                self._agents.append(ident)
                if self._states is not None:
                    self._states.append(None)
        self.n += count
        self._population_changed(tuple(changed))
        return {"joined": count, "n": self.n}

    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        self._check_population(count)
        if self.n - count < min_remaining:
            raise ConfigurationError(
                f"cannot remove {count} of {self.n} agents; at least "
                f"{min_remaining} must remain"
            )
        counts = self._counts
        changed: Dict[int, None] = {}
        if self._prunes:
            victims = self._sample_victims(count, rng)
        else:
            # Swap-removal in descending index order keeps pending indices
            # valid, as in AgentBackend.leave.
            agents = self._agents
            states = self._states
            victims = []
            for index in sorted(rng.sample(range(self.n), count), reverse=True):
                victims.append(agents[index])
                agents[index] = agents[-1]
                agents.pop()
                if states is not None:
                    states[index] = states[-1]
                    states.pop()
        for ident in victims:
            counts[ident] -= 1
            if not counts[ident]:
                del counts[ident]
            changed[ident] = None
        self._release_dead(changed)
        self.n -= count
        self._population_changed(tuple(changed))
        return {"left": count, "n": self.n}

    def restart_population(self) -> Dict[str, Any]:
        protocol = self.protocol
        if self._lifted is not None:
            initial: Counter = Counter()
            for agent_id in range(self.n):
                initial[self._lifted.register(protocol.initial_state(agent_id))] += 1
        else:
            initial = Counter(protocol.initial_key_counts(self.n))
        previous = self._counts
        self._counts = self._intern_counts(initial)
        self._release_dead(previous)
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
        ``rewrite(key, rng)``.  The pruning regime's kernel is resynced
        afterwards; the dense regime rewrites the victims' slots.
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
            new_ident = self._intern(new_key)
            counts[new_ident] = counts.get(new_ident, 0) + 1
            if slots is not None:
                agents[slots[position]] = new_ident
                if self._states is not None:
                    self._states[slots[position]] = None
            changed += 1
        self._release_dead(victim_ids)
        if changed:
            self.terminal = False
            if self._pair_kernel is not None:
                self._pair_kernel.resync(counts)
            else:
                # A corruption may collapse the population onto one key.
                self._check_dense_fixed_point()
        return changed

    # ------------------------------------------------------------- observers
    def sampler_stats(self) -> Dict[str, Any]:
        """JSON-friendly record of the run's draw path: regime and counters."""
        if self._pair_kernel is not None:
            return {
                "regime": "pruning", "strategy": "factorised", **self._pair_kernel.stats()
            }
        return {"regime": "dense", **self._sampler.stats()}

    def memo_stats(self) -> Dict[str, int]:
        """JSON-friendly counters of the interning table and transition memo.

        Every applied event is one ``hit`` (resolved from the memo), one
        ``miss`` (``delta_key`` evaluated for the memo) or one
        ``unrecorded`` event of a dense-regime stretch, which is evaluated
        even where the memo would hit; ``switches`` counts entries into
        and exits from stretch mode, which move no live state.  ``pairs``
        counts memoised id pairs and ``coin_nodes`` their coin branch
        points.  A protocol that does not declare pure key transitions
        misses on every event outside stretches.  ``interned_keys`` counts
        the ids in use and ``released`` the ids freed so far (see the class
        docstring).
        """
        return {
            "interned_keys": len(self._ids),
            "released": self._released,
            "pairs": len(self._memo),
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "unrecorded": self._unrecorded,
            "switches": self._mode_switches,
            "coin_nodes": self._coin_nodes,
        }

    def state_key_counts(self) -> Counter:
        keys = self._keys
        return Counter({keys[ident]: count for ident, count in self._counts.items()})

    def output_counts(self) -> Counter:
        outputs = self._outputs
        totals: Dict[Any, int] = {}
        total_of = totals.get
        for ident, count in self._counts.items():
            output = outputs[ident]
            totals[output] = total_of(output, 0) + count
        return Counter(totals)

    def outputs(self) -> List[Any]:
        expanded: List[Any] = []
        for output, count in self.output_counts().items():
            expanded.extend([output] * count)
        return expanded

    def convergence_view(self) -> Counter:
        return self.output_counts()
