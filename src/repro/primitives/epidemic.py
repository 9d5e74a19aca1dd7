"""One-way epidemics (broadcast) and maximum broadcast — Section 2, Lemma 3.

The goal of a one-way epidemic is to spread a value to all members of the
population.  The transition is ``delta(u, v) = (max(u, v), v)``: only the
*initiator* updates, adopting the maximum of the two values.  Maximum
broadcast is the natural extension where every agent starts with its own
value and the population converges on the global maximum.

Lemma 3 (well known, e.g. Angluin et al. 2008): the number of interactions to
complete a (maximum) broadcast is ``O(n log n)`` w.h.p.  Experiment E4
measures this empirically.

This module provides both the in-place *component update* used inside the
composed counting protocols and standalone :class:`~repro.engine.Protocol`
implementations for isolated study.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol

__all__ = [
    "epidemic_update",
    "EpidemicState",
    "OneWayEpidemic",
    "MaximumBroadcast",
]


def epidemic_update(initiator_value: int, responder_value: int) -> int:
    """Return the initiator's new value under the one-way epidemic rule.

    Implements ``delta(u, v) = (max(u, v), v)``: the responder is untouched,
    the initiator adopts the maximum.
    """
    return initiator_value if initiator_value >= responder_value else responder_value


@dataclass(slots=True)
class EpidemicState:
    """State of an agent in a standalone (maximum-)broadcast protocol.

    Attributes:
        value: The agent's current value; the output of the protocol.
    """

    value: int = 0

    def key(self) -> Hashable:
        return self.value


class OneWayEpidemic(Protocol[EpidemicState]):
    """Standalone one-way epidemic: ``source_count`` agents start informed.

    Agents start with value ``0`` except the first ``source_count`` agents,
    which start with ``source_value``; the protocol converges when every
    agent holds ``source_value``.

    Args:
        source_count: Number of initially informed agents (``>= 1``).
        source_value: The value being spread (``> 0``).
    """

    name = "one-way-epidemic"
    pure_key_transitions = True

    def __init__(self, source_count: int = 1, source_value: int = 1) -> None:
        if source_count < 1:
            raise ConfigurationError("source_count must be at least 1")
        if source_value <= 0:
            raise ConfigurationError("source_value must be positive (0 means 'uninformed')")
        self.source_count = source_count
        self.source_value = source_value

    def initial_state(self, agent_id: int) -> EpidemicState:
        value = self.source_value if agent_id < self.source_count else 0
        return EpidemicState(value=value)

    def transition(
        self, initiator: EpidemicState, responder: EpidemicState, rng: random.Random
    ) -> None:
        initiator.value = epidemic_update(initiator.value, responder.value)

    def output(self, state: EpidemicState) -> int:
        return state.value

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        # The initiator changes iff the responder holds a strictly larger value.
        return bool(key_b > key_a)  # type: ignore[operator]

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return epidemic_update(key_a, key_b), key_b  # type: ignore[arg-type]

    def output_key(self, key: Hashable) -> int:
        return key  # type: ignore[return-value]

    def initial_key_counts(self, n: int) -> Counter:
        sources = min(self.source_count, n)
        counts = Counter({self.source_value: sources})
        if n > sources:
            counts[0] = n - sources
        return counts


class MaximumBroadcast(Protocol[EpidemicState]):
    """Standalone maximum broadcast: each agent starts with its own value.

    The input configuration is given explicitly as a list of initial values
    (one per agent); the protocol converges when every agent outputs the
    global maximum.  The transition function itself is identical to
    :class:`OneWayEpidemic` and does not depend on ``n`` — supplying the
    initial values is part of the *input configuration*, not the protocol,
    so the protocol remains uniform.

    Args:
        initial_values: Per-agent starting values.  Agents beyond the length
            of the list start at ``0``.
    """

    name = "maximum-broadcast"
    pure_key_transitions = True

    def __init__(self, initial_values: Sequence[int]) -> None:
        if not initial_values:
            raise ConfigurationError("initial_values must not be empty")
        self.initial_values: List[int] = list(initial_values)

    def initial_state(self, agent_id: int) -> EpidemicState:
        if agent_id < len(self.initial_values):
            return EpidemicState(value=self.initial_values[agent_id])
        return EpidemicState(value=0)

    def transition(
        self, initiator: EpidemicState, responder: EpidemicState, rng: random.Random
    ) -> None:
        initiator.value = epidemic_update(initiator.value, responder.value)

    def output(self, state: EpidemicState) -> int:
        return state.value

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        return bool(key_b > key_a)  # type: ignore[operator]

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return epidemic_update(key_a, key_b), key_b  # type: ignore[arg-type]

    def output_key(self, key: Hashable) -> int:
        return key  # type: ignore[return-value]

    def initial_key_counts(self, n: int) -> Counter:
        counts = Counter(self.initial_values[:n])
        if n > len(self.initial_values):
            counts[0] += n - len(self.initial_values)
        return counts

    @property
    def target(self) -> int:
        """The value every agent should eventually output (the global maximum)."""
        return max(self.initial_values)
