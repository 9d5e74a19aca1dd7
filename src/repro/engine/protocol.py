"""The population-protocol abstraction used throughout the library.

A population protocol is specified by a state space ``Q``, a transition
function ``delta: Q x Q -> Q x Q`` applied to (initiator, responder) pairs,
and an output function ``omega: Q -> O`` (Section 1.1 of the paper).  This
module defines :class:`Protocol`, the abstract base class every protocol in
the library implements, plus small helpers shared by implementations.

Design notes
------------
* **States are mutable objects.**  ``transition`` mutates the two state
  objects in place (they are always distinct objects); this avoids per-
  interaction allocations, which matters because a single Theorem-2 run at
  ``n = 512`` performs hundreds of thousands of interactions.
* **Every state must expose a hashable key** (via a ``key()`` method, a
  ``__slots__`` dataclass, or by overriding :meth:`Protocol.state_key`).
  Keys drive state-space accounting (the paper's second efficiency measure)
  and convergence checks.
* **Uniformity is a declared property.**  Uniform protocols never receive the
  population size; non-uniform baselines/oracles must set ``uniform = False``
  so the experiment layer can exclude them from uniform suites.
"""

from __future__ import annotations

import abc
import dataclasses
import random
from collections import Counter
from typing import Any, Generic, Hashable, Iterable, Optional, Sequence, Tuple, TypeVar

__all__ = ["Protocol", "state_fields", "generic_state_key", "deep_replace"]

S = TypeVar("S")


def state_fields(state: Any) -> Sequence[str]:
    """Return the ordered field names of a dataclass state object."""
    return tuple(f.name for f in dataclasses.fields(state))


def deep_replace(state: Any) -> Any:
    """Return a copy of a dataclass instance with nested dataclasses copied too.

    ``dataclasses.replace`` alone is shallow: a composed state such as the
    counting protocols' agents (a dataclass of component dataclasses) would
    share its mutable components with the copy, so mutating the copy corrupts
    the original.  This helper recurses into dataclass-typed field values.
    """
    values = {}
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = deep_replace(value)
        values[f.name] = value
    return type(state)(**values)


def generic_state_key(state: Any) -> Hashable:
    """Best-effort hashable key for an arbitrary state object.

    Preference order: an explicit ``key()`` method, dataclass field values,
    the object itself when hashable, and finally ``repr``.
    """
    key_method = getattr(state, "key", None)
    if callable(key_method):
        return key_method()
    if dataclasses.is_dataclass(state) and not isinstance(state, type):
        return tuple(getattr(state, f.name) for f in dataclasses.fields(state))
    try:
        hash(state)
    except TypeError:
        return repr(state)
    return state


class Protocol(abc.ABC, Generic[S]):
    """Abstract base class for population protocols.

    Subclasses implement :meth:`initial_state`, :meth:`transition`, and
    :meth:`output`.  The engine treats states as opaque except for the
    hashable key returned by :meth:`state_key`.

    Attributes:
        name: Human-readable protocol name used in reports and experiment
            tables.  Defaults to the class name.
        uniform: ``True`` when the transition function does not depend on the
            population size ``n`` (the paper's uniformity requirement).
    """

    name: str = ""
    uniform: bool = True
    #: ``True`` when :meth:`delta_key` is a function of the two keys and the
    #: coin bits it draws with ``rng.getrandbits`` (the synthetic coin
    #: :func:`~repro.primitives.synthetic_coin.flip`) alone: no other ``rng``
    #: method and no hidden state.  A transition that draws no coin is the
    #: deterministic special case.  The batch backend then memoises key-level
    #: transitions per pair *type*, one branch per drawn coin value, and
    #: replays the coins from the agent stream, so seeded runs are identical
    #: with and without the memo.
    pure_key_transitions: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.__dict__.get("name"):
            cls.name = cls.__name__

    # ------------------------------------------------------------------ API
    @abc.abstractmethod
    def initial_state(self, agent_id: int) -> S:
        """Return the initial state of agent ``agent_id``.

        Uniform protocols must ignore ``agent_id`` for everything except
        symmetry breaking that the paper itself allows (the paper's input
        configurations are fully symmetric, so implementations here ignore
        it; it exists so that test fixtures can construct asymmetric
        starting configurations explicitly).
        """

    @abc.abstractmethod
    def transition(self, initiator: S, responder: S, rng: random.Random) -> None:
        """Apply one interaction, mutating ``initiator`` and ``responder``.

        ``rng`` models the synthetic-coin randomness available to agents
        (Appendix D); uniform protocols may use it for fair coin flips but
        must not use it to learn ``n``.
        """

    @abc.abstractmethod
    def output(self, state: S) -> Any:
        """Return the current output ``omega(state)`` of an agent."""

    # ------------------------------------------------------------- optional
    def state_key(self, state: S) -> Hashable:
        """Return a hashable key identifying ``state`` within the state space."""
        return generic_state_key(state)

    def copy_state(self, state: S) -> S:
        """Return an independent copy of ``state`` (used by recorders/tests).

        Nested dataclass fields are copied recursively: composed states (a
        dataclass of component dataclasses, the shape of every counting
        protocol) must not share mutable components with their copies, or the
        key-lifting adapter's representatives would be corrupted in place.
        """
        if dataclasses.is_dataclass(state) and not isinstance(state, type):
            return deep_replace(state)  # type: ignore[return-value]
        raise ProtocolCopyError(
            f"{type(self).__name__} states are not dataclasses; override copy_state()"
        )

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        """Return whether an (a, b) interaction could change the *configuration*.

        The configuration is the multiset of state keys, so an interaction
        that merely swaps the two participants' keys does not count as a
        change.  Used for *stabilisation* detection (a configuration is
        stable when no ordered pair of present state keys can change it) and
        by the batch backend to skip runs of configuration-preserving
        interactions in one geometric jump.  The default is conservative
        (``True``); protocols should override it — a ``False`` answer must be
        exact, a ``True`` answer may be conservative.
        """
        return True

    # --------------------------------------------------- key-level transitions
    def state_from_key(self, key: Hashable) -> S:
        """Return a fresh state whose key is ``key``: the inverse of :meth:`state_key`.

        The decoded state need only be *behaviourally* identical to any
        state with that key (a key may drop bookkeeping no transition or
        output reads, such as the counting protocols' raw phase counter; see
        :mod:`repro.counting.keys`), and ``state_key`` of it must give
        ``key`` back.  Defining it together with :meth:`output_key` is enough
        for the batch backend: the base :meth:`delta_key` is built on it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement key-level transitions"
        )

    def delta_key(
        self,
        key_a: Hashable,
        key_b: Hashable,
        rng: random.Random,
        state_a: Optional[S] = None,
        state_b: Optional[S] = None,
    ) -> Tuple[Hashable, Hashable]:
        """Apply one interaction at the level of state *keys*.

        Returns the pair of post-interaction keys for an (initiator,
        responder) interaction between agents whose states have keys
        ``key_a`` and ``key_b``.  This is the configuration-as-multiset view
        of the transition function: the batch backend only ever manipulates
        key histograms, never per-agent state objects, so a protocol that
        implements the key-level API (together with :meth:`output_key`) can
        be simulated at population sizes where materialising ``n`` state
        objects is prohibitive.

        The base implementation runs :meth:`transition_keys` on states
        decoded by :meth:`state_from_key`.  A caller that already holds live
        states for the two keys (distinct objects nobody else references)
        may hand them over as ``state_a`` / ``state_b``: they are then not
        decoded, and :meth:`transition` mutates them into the
        post-interaction states.
        The batch backend's dense regime does this with the states its
        previous misses produced.

        Overrides must be *behaviourally identical* to :meth:`transition`
        applied to states with the given keys; they take no states.
        Protocols that implement neither an override nor
        :meth:`state_from_key` are lifted automatically via
        :class:`repro.engine.backends.LiftedKeyTransitions` (which relies on
        :meth:`copy_state`).
        """
        if state_a is None:
            state_a = self.state_from_key(key_a)
        if state_b is None:
            state_b = self.state_from_key(key_b)
        return self.transition_keys(state_a, state_b, rng, key_a, key_b)

    def transition_keys(
        self, state_a: S, state_b: S, rng: random.Random, key_a: Hashable, key_b: Hashable
    ) -> Tuple[Hashable, Hashable]:
        """Run :meth:`transition` on two states and return their post-keys.

        ``state_a`` and ``state_b`` must encode ``key_a`` and ``key_b``
        (``state_key`` of each gives its key back): the base
        :meth:`delta_key` calls this on the states it decoded or was
        handed.  The default runs :meth:`transition` and builds both
        post-keys with :meth:`state_key`; it does not read the pre-keys.

        An override may build only the parts of each post-key that the
        transition wrote and take the rest from the pre-key, since an
        unwritten part of the state still encodes what the pre-key says.
        It is exact when every write the transition makes to a state is
        covered by a part it rebuilds; it must leave the states and
        ``rng`` exactly as :meth:`transition` does.
        """
        self.transition(state_a, state_b, rng)
        return self.state_key(state_a), self.state_key(state_b)

    def output_key(self, key: Hashable) -> Any:
        """Return the output ``omega`` of an agent whose state has key ``key``.

        Must agree with :meth:`output` on every reachable state.  Required by
        the batch backend alongside :meth:`delta_key` or
        :meth:`state_from_key`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement key-level outputs"
        )

    def initial_key_counts(self, n: int) -> Counter:
        """Return the initial configuration as a histogram of state keys.

        The default materialises every initial state, which is correct but
        costs ``O(n)`` object constructions; protocols with closed-form
        initial configurations override it so the batch backend can start a
        run at ``n = 10**6`` and beyond in ``O(1)``.
        """
        counts: Counter = Counter()
        for agent_id in range(n):
            counts[self.state_key(self.initial_state(agent_id))] += 1
        return counts

    def supports_key_transitions(self) -> bool:
        """Whether this protocol natively implements the key-level API.

        Native means :meth:`output_key` plus either a :meth:`delta_key`
        override or a :meth:`state_from_key` decoder.
        """
        cls = type(self)
        return cls.output_key is not Protocol.output_key and (
            cls.delta_key is not Protocol.delta_key
            or cls.state_from_key is not Protocol.state_from_key
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{type(self).__name__} name={self.name!r} uniform={self.uniform}>"


class ProtocolCopyError(TypeError):
    """Raised when :meth:`Protocol.copy_state` cannot copy a state object."""
