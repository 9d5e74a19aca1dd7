"""The Search Protocol — Algorithm 1, Section 3.1 (the core of `Approximate`).

A unique leader orchestrates a doubling search for ``log2 n``: in round ``r``
it injects ``2^r`` tokens into the population, the non-leader agents spread
them with the *powers-of-two* load-balancing process (every agent's load is a
power of two, stored as its logarithm ``k``), the maximum logarithmic load is
broadcast, and the leader looks at it: if no agent ended up with more than
one token the injected load was at most ``n`` (in fact at most ``3n/4``
w.h.p., Lemma 8) and the leader doubles the injection; otherwise the load
exceeded the population and the leader stops, reporting ``k_u`` with
``3n/4 < 2^{k_u} <= 2^{ceil(log2 n)}`` (Lemma 9) — i.e. ``floor(log2 n)`` or
``ceil(log2 n)``.

Each round occupies five phases of the junta-driven phase clock
(``phase mod 5``):

====== =====================================================================
Phase  Action
====== =====================================================================
0      followers reset their load to "empty" (``k = -1``)
1      the leader hands ``2^{k_u}`` tokens to its first partner (first tick)
2      followers run powers-of-two load balancing
3      followers spread the maximum ``k`` by one-way epidemics
4      the leader decides: double the injection or finish (first tick)
====== =====================================================================

This module defines the per-agent component state and the in-place update
used by protocol `Approximate` (Algorithm 2) and its stable variant.  A
standalone protocol with an externally designated leader — matching the
assumption of Section 3.1 ("a unique leader is given") — is provided for
experiment E9.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional

from ..engine.protocol import Protocol
from ..primitives.junta import JuntaState, junta_update_pair
from ..primitives.load_balancing import EMPTY, balance_powers_of_two
from ..primitives.phase_clock import PhaseClockState, phase_clock_update
from .params import ApproximateParameters

__all__ = ["SearchState", "search_update", "SearchWithGivenLeader", "SearchAgent"]


@dataclass(slots=True)
class SearchState:
    """Per-agent state of the Search Protocol.

    Attributes:
        k: Logarithmic load.  For the leader this is the logarithm of the
            load injected in the current round (the search variable); for
            followers it is the logarithm of the tokens they currently hold,
            with ``-1`` encoding "empty".
        search_done: Whether the leader has concluded the search (spread to
            all agents in the broadcasting / error-detection stage).
    """

    k: int = EMPTY
    search_done: bool = False

    def key(self) -> Hashable:
        return (self.k, self.search_done)

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.k = EMPTY
        self.search_done = False


def search_update(
    u: SearchState,
    v: SearchState,
    u_leader: bool,
    v_leader: bool,
    u_phase: int,
    u_first_tick: bool,
) -> None:
    """Apply one Search Protocol interaction (Algorithm 1).

    Args:
        u: Initiator's search state (mutated).
        v: Responder's search state (mutated: receives the leader's injection
            in phase 1 and takes part in balancing/epidemics).
        u_leader: Whether the initiator is the unique leader.
        v_leader: Whether the responder is the unique leader.
        u_phase: The initiator's phase-clock phase counter (interpreted
            modulo 5).
        u_first_tick: Whether this is the initiator's first initiated
            interaction of its current phase.
    """
    phase = u_phase % 5

    if u_leader and not u.search_done:
        if phase == 1 and u_first_tick:
            # Phase 1: load infusion — the leader hands 2^{k_u} tokens over.
            v.k = u.k
        elif phase == 4 and u_first_tick:
            # Phase 4: decision — double the injection or conclude the search.
            if v.k <= 0:
                u.k += 1
            else:
                u.search_done = True
        return

    if not u_leader and not v_leader:
        if phase == 0:
            # Phase 0: initialisation — followers drop their tokens.
            u.k = EMPTY
        elif phase == 2:
            # Phase 2: powers-of-two load balancing.
            u.k, v.k = balance_powers_of_two(u.k, v.k)
        elif phase == 3:
            # Phase 3: one-way epidemics on the maximum logarithmic load.
            top = max(u.k, v.k)
            u.k = top
            v.k = top


@dataclass(slots=True)
class SearchAgent:
    """Full agent state of the standalone Search Protocol."""

    junta: JuntaState
    clock: PhaseClockState
    search: SearchState
    is_leader: bool = False

    def key(self) -> Hashable:
        return (self.junta.key(), self.clock.key(), self.search.key(), self.is_leader)


class SearchWithGivenLeader(Protocol[SearchAgent]):
    """The Search Protocol under the assumptions of Section 3.1.

    Agent 0 is designated as the unique leader as part of the input
    configuration; synchronisation is provided by the junta-driven phase
    clock run by all agents in parallel.  The output of an agent is its
    current ``k`` when the search has concluded (``None`` before that), so
    the convergence predicate for experiment E9 is "every output lies in
    ``{floor(log2 n), ceil(log2 n)}``".

    Args:
        params: Protocol constants (clock modulus etc.).
        start_phase: Number of warm-up phases before the search begins.  In
            protocol `Approximate` the search is preceded by leader election,
            which gives the junta process and the phase clock ample time to
            stabilise; the standalone variant reproduces that warm-up by
            simply idling for ``start_phase`` phases.
    """

    name = "search-protocol"
    # The search, clock, and junta updates never consume randomness.
    pure_key_transitions = True

    def __init__(
        self,
        params: ApproximateParameters = ApproximateParameters(),
        start_phase: int = 8,
    ) -> None:
        self.params = params
        self.start_phase = start_phase

    def initial_state(self, agent_id: int) -> SearchAgent:
        return SearchAgent(
            junta=JuntaState(),
            clock=PhaseClockState(),
            search=SearchState(),
            is_leader=agent_id == 0,
        )

    def transition(
        self, initiator: SearchAgent, responder: SearchAgent, rng: random.Random
    ) -> None:
        u_saw_higher, v_saw_higher = junta_update_pair(initiator.junta, responder.junta)
        if u_saw_higher:
            initiator.clock.reset()
            initiator.search.reset()
        if v_saw_higher:
            responder.clock.reset()
            responder.search.reset()
        u_clock_before = initiator.clock.clock
        v_clock_before = responder.clock.clock
        phase_clock_update(
            initiator.clock,
            v_clock_before,
            is_junta=initiator.junta.junta,
            modulus=self.params.clock_modulus,
        )
        phase_clock_update(
            responder.clock,
            u_clock_before,
            is_junta=responder.junta.junta,
            modulus=self.params.clock_modulus,
        )
        if initiator.search.search_done:
            # Broadcasting stage: push the result to the responder.
            responder.search.search_done = True
            responder.search.k = initiator.search.k
        elif initiator.clock.phase >= self.start_phase:
            search_update(
                initiator.search,
                responder.search,
                u_leader=initiator.is_leader,
                v_leader=responder.is_leader,
                u_phase=initiator.clock.phase - self.start_phase,
                u_first_tick=initiator.clock.first_tick,
            )
        initiator.clock.first_tick = False

    def output(self, state: SearchAgent) -> Optional[int]:
        return state.search.k if state.search.search_done else None

    def state_key(self, state: SearchAgent) -> Hashable:
        return state.key()

    # --------------------------------------------------- key-level transitions
    # Unlike the composed protocols, the standalone search keys the *raw*
    # phase counter (the warm-up comparison ``phase >= start_phase`` is not a
    # residue), so decoding is fully lossless.
    def state_from_key(self, key: Hashable) -> SearchAgent:
        junta, clock, search, is_leader = key  # type: ignore[misc]
        return SearchAgent(
            junta=JuntaState(*junta),
            clock=PhaseClockState(*clock),
            search=SearchState(*search),
            is_leader=is_leader,
        )

    def output_key(self, key: Hashable) -> Optional[int]:
        k, search_done = key[2]  # type: ignore[index]
        return k if search_done else None

    def initial_key_counts(self, n: int) -> Counter:
        leader_key = self.state_key(self.initial_state(0))
        follower_key = self.state_key(self.initial_state(1))
        counts = Counter({leader_key: 1})
        counts[follower_key] += n - 1
        return counts
