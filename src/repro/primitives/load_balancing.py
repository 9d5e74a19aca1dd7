"""Load balancing — classical [10] and powers-of-two (Section 3.1, Lemma 8).

Two token-balancing processes appear in the paper:

* **Classical load balancing** ([10], used by `CountExact`): when agents with
  loads ``l_u`` and ``l_v`` interact they split the total evenly,
  ``(l_u, l_v) <- (floor((l_u + l_v)/2), ceil((l_u + l_v)/2))``.  After
  ``O(n log n)`` interactions the discrepancy (max - min load) is constant
  w.h.p.
* **Powers-of-two load balancing** (used by the Search Protocol): agents
  store only the *logarithm* ``k`` of their load (``-1`` encodes an empty
  agent); a balancing step is permitted only when exactly one of the two
  agents is empty, and then both end up with half of the loaded agent's
  tokens: ``(k, -1) -> (k-1, k-1)`` for ``k > 0``.  Lemma 8: if a single
  agent starts with ``2^kappa <= (3/4) n`` tokens and everyone else is empty,
  then w.h.p. after ``16 n log n`` interactions the maximum logarithmic load
  is ``0`` (i.e. every loaded agent holds exactly one token).

Both processes conserve the total number of tokens — the key invariant the
property-based tests check.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol

__all__ = [
    "split_evenly",
    "balance_powers_of_two",
    "EMPTY",
    "load_from_log",
    "total_load_from_logs",
    "discrepancy",
    "ClassicalLoadState",
    "ClassicalLoadBalancing",
    "PowersOfTwoState",
    "PowersOfTwoLoadBalancing",
]

#: Logarithmic-load value encoding an empty agent (no tokens).
EMPTY = -1


def split_evenly(load_u: int, load_v: int) -> Tuple[int, int]:
    """Classical balancing step: split ``load_u + load_v`` as evenly as possible.

    Returns ``(floor(total/2), ceil(total/2))`` following [10]; the initiator
    receives the floor.
    """
    total = load_u + load_v
    half = total // 2
    return half, total - half


def balance_powers_of_two(k_u: int, k_v: int) -> Tuple[int, int]:
    """Powers-of-two balancing step on logarithmic loads (Equation (1)).

    A balancing action is permitted only when exactly one agent is empty
    (``EMPTY``) and the other holds more than one token (``k > 0``); both
    agents then end up with ``2^(k-1)`` tokens.  In every other case the
    loads are unchanged.
    """
    if k_u > 0 and k_v == EMPTY:
        return k_u - 1, k_u - 1
    if k_u == EMPTY and k_v > 0:
        return k_v - 1, k_v - 1
    return k_u, k_v


def load_from_log(k: int) -> int:
    """Return the token count encoded by logarithmic load ``k`` (``EMPTY`` -> 0)."""
    return 0 if k == EMPTY else 1 << k


def total_load_from_logs(ks: Sequence[int]) -> int:
    """Total number of tokens in a logarithmic load vector."""
    return sum(load_from_log(k) for k in ks)


def discrepancy(loads: Sequence[int]) -> int:
    """Difference between the maximum and minimum load in a load vector."""
    if not loads:
        return 0
    return max(loads) - min(loads)


# --------------------------------------------------------------------------
# Classical load balancing (tokens stored explicitly)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ClassicalLoadState:
    """State of an agent in the classical load-balancing protocol."""

    load: int = 0

    def key(self) -> Hashable:
        return self.load


class ClassicalLoadBalancing(Protocol[ClassicalLoadState]):
    """Standalone classical load balancing of [10].

    The input configuration is an arbitrary distribution of ``m``
    indistinguishable tokens over the agents, supplied as ``initial_loads``
    (agents beyond the list start empty).  The output of an agent is its
    current load.  [10] shows the discrepancy drops to ``O(1)`` within
    ``O(n log n)`` interactions w.h.p.
    """

    name = "classical-load-balancing"
    pure_key_transitions = True

    def __init__(self, initial_loads: Sequence[int]) -> None:
        if any(load < 0 for load in initial_loads):
            raise ConfigurationError("loads must be non-negative")
        self.initial_loads: List[int] = list(initial_loads)

    def initial_state(self, agent_id: int) -> ClassicalLoadState:
        if agent_id < len(self.initial_loads):
            return ClassicalLoadState(load=self.initial_loads[agent_id])
        return ClassicalLoadState(load=0)

    def transition(
        self, initiator: ClassicalLoadState, responder: ClassicalLoadState, rng: random.Random
    ) -> None:
        initiator.load, responder.load = split_evenly(initiator.load, responder.load)

    def output(self, state: ClassicalLoadState) -> int:
        return state.load

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        # An even split leaves the *multiset* {floor, ceil} unchanged when the
        # loads differ by at most one, even though the agents may swap values.
        return abs(int(key_a) - int(key_b)) > 1  # type: ignore[arg-type]

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return split_evenly(key_a, key_b)  # type: ignore[arg-type]

    def output_key(self, key: Hashable) -> int:
        return key  # type: ignore[return-value]

    def initial_key_counts(self, n: int) -> Counter:
        counts = Counter(self.initial_loads[:n])
        if n > len(self.initial_loads):
            counts[0] += n - len(self.initial_loads)
        return counts

    @property
    def total_tokens(self) -> int:
        """Total number of tokens in the input configuration."""
        return sum(self.initial_loads)


# --------------------------------------------------------------------------
# Powers-of-two load balancing (logarithmic loads)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class PowersOfTwoState:
    """State of an agent in the powers-of-two load-balancing protocol."""

    k: int = EMPTY

    def key(self) -> Hashable:
        return self.k


class PowersOfTwoLoadBalancing(Protocol[PowersOfTwoState]):
    """Standalone powers-of-two balancing as analysed in Lemma 8.

    One designated agent starts with ``2^kappa`` tokens (logarithmic load
    ``kappa``); every other agent starts empty.  The output of an agent is
    its logarithmic load.  Lemma 8: when ``2^kappa <= (3/4) n`` the maximum
    logarithmic load reaches ``0`` within ``16 n log n`` interactions w.h.p.

    Args:
        kappa: Logarithm of the initial token pile (``>= 0``).
        loaded_agents: Number of agents that start with ``2^kappa`` tokens
            each (the lemma uses 1; the generalisation is exercised in tests).
    """

    name = "powers-of-two-load-balancing"
    pure_key_transitions = True

    def __init__(self, kappa: int, loaded_agents: int = 1) -> None:
        if kappa < 0:
            raise ConfigurationError("kappa must be non-negative")
        if loaded_agents < 1:
            raise ConfigurationError("at least one agent must carry load")
        self.kappa = kappa
        self.loaded_agents = loaded_agents

    def initial_state(self, agent_id: int) -> PowersOfTwoState:
        if agent_id < self.loaded_agents:
            return PowersOfTwoState(k=self.kappa)
        return PowersOfTwoState(k=EMPTY)

    def transition(
        self, initiator: PowersOfTwoState, responder: PowersOfTwoState, rng: random.Random
    ) -> None:
        initiator.k, responder.k = balance_powers_of_two(initiator.k, responder.k)

    def output(self, state: PowersOfTwoState) -> int:
        return state.k

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        k_a, k_b = int(key_a), int(key_b)  # type: ignore[arg-type]
        return (k_a > 0 and k_b == EMPTY) or (k_a == EMPTY and k_b > 0)

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return balance_powers_of_two(key_a, key_b)  # type: ignore[arg-type]

    def output_key(self, key: Hashable) -> int:
        return key  # type: ignore[return-value]

    def initial_key_counts(self, n: int) -> Counter:
        loaded = min(self.loaded_agents, n)
        counts = Counter({self.kappa: loaded})
        if n > loaded:
            counts[EMPTY] += n - loaded
        return counts

    @property
    def total_tokens(self) -> int:
        """Total number of tokens in the input configuration."""
        return self.loaded_agents * (1 << self.kappa)
