"""The junta process — Section 2, Lemma 4 (following [18] and [8]).

The junta process marks ``Theta(n^epsilon)`` agents — the *junta* — which
subsequently drive the phase clocks.  Each agent holds a triple
``(level, active, junta)`` initialised to ``(0, True, True)``:

* an **active** agent that meets another active agent *on the same level*
  increases its level; if it meets anything else it becomes inactive;
* any agent that meets an agent on a **higher level** clears its junta bit;
* an **inactive** agent adopts the partner's level if that level is higher.

The process stabilises when every agent is inactive; the junta consists of
the agents that reached the maximal level with their junta bit still set.
Lemma 4 states that w.h.p. all agents become inactive within ``O(n log n)``
interactions, the maximal level lies in ``[log log n - 4, log log n + 8]``,
and the number of agents on the maximal level is ``O(sqrt(n) * log n)``.
Experiment E5 measures all three quantities.

Besides driving the clocks, the maximal level doubles as a coarse size
estimate: ``2^(2^level) ≈ n``, which protocol ``CountExact`` exploits to
choose how many tokens/random bits to use (see
:mod:`repro.counting.params`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

from ..engine.protocol import Protocol

__all__ = [
    "JuntaState",
    "junta_update",
    "junta_update_pair",
    "JuntaProtocol",
    "junta_summary",
]


@dataclass(slots=True)
class JuntaState:
    """Per-agent state of the junta process.

    Attributes:
        level: Highest level reached or adopted so far.
        active: Whether the agent is still actively climbing levels.
        junta: Whether the agent still believes it belongs to the junta of
            its current level (cleared on meeting a higher level).
        reached_level: Highest level the agent attained *actively* (by
            climbing, not by adopting a partner's level).  Lemma 4's bound on
            the number of agents "on the maximal level" refers to this
            quantity; ``level`` itself is eventually adopted by everyone via
            the epidemic so that all agents agree on the maximal level.
    """

    level: int = 0
    active: bool = True
    junta: bool = True
    reached_level: int = 0

    def key(self) -> Hashable:
        return (self.level, self.active, self.junta, self.reached_level)


def junta_update(u: JuntaState, v: JuntaState) -> bool:
    """Apply the one-way junta transition to initiator ``u`` given responder ``v``.

    Returns ``True`` when the initiator observed a strictly higher level, the
    event on which the composed protocols re-initialise their downstream
    state (Algorithm 2 / Algorithm 3, line 1).
    """
    saw_higher = v.level > u.level
    if u.active:
        if v.active and v.level == u.level:
            u.level += 1
            u.reached_level = u.level
        else:
            u.active = False
    if saw_higher:
        u.junta = False
        if not u.active:
            u.level = v.level
    return saw_higher


def junta_update_pair(u: JuntaState, v: JuntaState) -> Tuple[bool, bool]:
    """Apply the symmetric junta transition to both interaction partners.

    This is the reading used by the composed protocols (Algorithms 2 and 3
    update the junta variables of both agents): two active agents on the same
    level *both* climb to the next level, every other active participant
    becomes inactive, both agents clear their junta bit when the partner's
    (pre-interaction) level is higher, and inactive agents adopt a higher
    partner level.

    Returns a pair ``(u_saw_higher, v_saw_higher)`` indicating which agents
    observed a strictly higher pre-interaction level — the event that makes
    the composed protocols re-initialise that agent's downstream state.
    """
    u_level, v_level = u.level, v.level
    u_saw_higher = v_level > u_level
    v_saw_higher = u_level > v_level

    if u.active and v.active and u_level == v_level:
        u.level += 1
        v.level += 1
        u.reached_level = u.level
        v.reached_level = v.level
    else:
        if u.active:
            u.active = False
        if v.active:
            v.active = False

    if u_saw_higher:
        u.junta = False
        if not u.active:
            u.level = max(u.level, v_level)
    if v_saw_higher:
        v.junta = False
        if not v.active:
            v.level = max(v.level, u_level)
    return u_saw_higher, v_saw_higher


class JuntaProtocol(Protocol[JuntaState]):
    """Standalone junta process for isolated measurement (experiment E5)."""

    name = "junta-process"
    pure_key_transitions = True

    def initial_state(self, agent_id: int) -> JuntaState:
        return JuntaState()

    def transition(
        self, initiator: JuntaState, responder: JuntaState, rng: random.Random
    ) -> None:
        junta_update_pair(initiator, responder)

    def output(self, state: JuntaState) -> Tuple[int, bool, bool]:
        return (state.level, state.active, state.junta)

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        level_a, active_a, _junta_a, _reached_a = key_a  # type: ignore[misc]
        level_b, active_b, _junta_b, _reached_b = key_b  # type: ignore[misc]
        # A symmetric junta interaction is a no-op exactly when both agents
        # are inactive and on the same level: any active participant changes
        # (climbs or deactivates), and a level difference clears a junta bit
        # and/or makes the lower agent adopt the higher level.
        return bool(active_a or active_b or level_a != level_b)

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        # Pure-key transcription of :func:`junta_update_pair`.
        level_a0, active_a, junta_a, reached_a = key_a  # type: ignore[misc]
        level_b0, active_b, junta_b, reached_b = key_b  # type: ignore[misc]
        level_a, level_b = level_a0, level_b0
        a_saw_higher = level_b0 > level_a0
        b_saw_higher = level_a0 > level_b0
        if active_a and active_b and level_a0 == level_b0:
            level_a += 1
            level_b += 1
            reached_a = level_a
            reached_b = level_b
        else:
            active_a = False
            active_b = False
        if a_saw_higher:
            junta_a = False
            if not active_a:
                level_a = max(level_a, level_b0)
        if b_saw_higher:
            junta_b = False
            if not active_b:
                level_b = max(level_b, level_a0)
        return (
            (level_a, active_a, junta_a, reached_a),
            (level_b, active_b, junta_b, reached_b),
        )

    def output_key(self, key: Hashable) -> Tuple[int, bool, bool]:
        level, active, junta, _reached = key  # type: ignore[misc]
        return (level, active, junta)

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({(0, True, True, 0): n})


def junta_summary(states: Sequence[JuntaState]) -> dict:
    """Summarise a final junta-process configuration.

    Returns a dictionary with the maximal level, the number of agents on the
    maximal level, the junta size (maximal level *and* junta bit set), and
    the number of still-active agents — the quantities bounded by Lemma 4.
    """
    if not states:
        return {
            "max_level": 0,
            "agents_on_max_level": 0,
            "agents_reached_max_level": 0,
            "junta_size": 0,
            "active_agents": 0,
        }
    max_level = max(state.level for state in states)
    on_max = sum(1 for state in states if state.level == max_level)
    reached_max = sum(1 for state in states if state.reached_level == max_level)
    junta_size = sum(1 for state in states if state.level == max_level and state.junta)
    active = sum(1 for state in states if state.active)
    return {
        "max_level": max_level,
        "agents_on_max_level": on_max,
        "agents_reached_max_level": reached_max,
        "junta_size": junta_size,
        "active_agents": active,
    }
