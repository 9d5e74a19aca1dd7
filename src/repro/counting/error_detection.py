"""Error detection for the stable `Approximate` protocol — Algorithm 7, Appendix B.

The stable variant of `Approximate` replaces the broadcasting stage with an
error-detection stage that *validates* the leader's search result before the
population commits to it.  The idea: the leader injects ``2^(k_u - 2)``
tokens, the population balances them (first the powers-of-two process on the
``k`` values, then the classical process on small per-agent counters scaled
by 32), and every agent checks that its final load is plausible
(``>= 3`` and within discrepancy 2 of its partners).  If ``k_u`` were too
small the total load would be insufficient and the checks fail; any failing
agent raises an ``error`` flag which spreads by one-way epidemics and makes
the whole population fall back to the always-correct backup protocol.

The stage runs in five phases counted by each agent from the moment it
enters the stage (``phase'``); entry happens mid-phase, so the first clock
tick after entering *starts* phase' 0 and subsequent ticks advance the
counter, freezing at 4:

====== ===============================================================
Phase  Action
====== ===============================================================
0      the leader hands ``2^(k_u - 2)`` tokens to its first partner
1      powers-of-two load balancing on the ``k`` values (non-leaders)
2      initialise the counter ``l`` (0 / 32 / error) from the ``k`` value
3      classical load balancing on the ``l`` values
4      the leader recomputes ``k``; everyone checks loads, adopts the
       leader's ``k`` by maximum broadcast, and freezes its phase clock
====== ===============================================================

Deviation from the pseudo-code: the phase-synchronisation check raises the
error flag when two agents' ``phase'`` counters differ by **two or more**.
A difference of exactly one occurs legitimately for a single interaction at
every phase boundary (the agent that drives the clock tick is momentarily
one phase ahead of a partner that has not wrapped yet), so the literal "any
difference" rule would fire on every healthy execution at simulation scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from ..primitives.load_balancing import EMPTY, balance_powers_of_two, split_evenly
from .params import ApproximateParameters

__all__ = [
    "ErrorDetectionState",
    "error_detection_update",
    "advance_detection_phase",
    "WAITING_PHASE",
]

#: Sentinel phase value meaning "entered the stage, waiting for the first tick".
WAITING_PHASE = -1


@dataclass(slots=True)
class ErrorDetectionState:
    """Per-agent state of the error-detection stage.

    Attributes:
        entered: Whether the agent has entered the error-detection stage.
        phase: The agent's stage phase counter ``phase'`` (``WAITING_PHASE``
            until its first clock tick inside the stage, then 0–4, frozen at 4).
        k: Logarithmic load used by the powers-of-two balancing (phases 0–1)
            and, from phase 4 on, the broadcast estimate of ``log2 n``.
        load: Small token counter used by the classical balancing (phases 2–4).
        error: Whether this agent detected an inconsistency.
    """

    entered: bool = False
    phase: int = WAITING_PHASE
    k: int = EMPTY
    load: int = 0
    error: bool = False

    def key(self) -> Hashable:
        return (self.entered, self.phase, self.k, self.load, self.error)

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.entered = False
        self.phase = WAITING_PHASE
        self.k = EMPTY
        self.load = 0
        self.error = False

    def enter(self, leader_k: Optional[int] = None) -> None:
        """Enter the error-detection stage with a clean slate (line 2)."""
        self.entered = True
        self.phase = WAITING_PHASE
        self.k = EMPTY if leader_k is None else leader_k
        self.load = 0
        self.error = False

    @property
    def finished(self) -> bool:
        """Whether the agent has reached the final (frozen) phase."""
        return self.phase >= 4


def advance_detection_phase(state: ErrorDetectionState) -> None:
    """Advance the stage phase counter by one tick, freezing at phase 4.

    The composed protocols call this for *every* clock tick of an entered
    agent (whether it is currently the initiator or the responder, and
    regardless of which stage the interaction's initiator is in); counting
    only the ticks seen from inside the stage would make agents drift apart.
    """
    if state.entered and state.phase < 4:
        state.phase += 1


def error_detection_update(
    u: ErrorDetectionState,
    v: ErrorDetectionState,
    u_leader: bool,
    v_leader: bool,
    u_search_k: int,
    u_first_tick: bool,
    params: ApproximateParameters = ApproximateParameters(),
) -> Optional[int]:
    """Apply one error-detection interaction (Algorithm 7).

    The initiator ``u`` must already be in the stage; the responder is pulled
    in on first contact (lines 1–2).  Phase counters are advanced separately
    by the caller via :func:`advance_detection_phase` on every clock tick.

    Args:
        u: Initiator's error-detection state (mutated).
        v: Responder's error-detection state (mutated).
        u_leader: Whether the initiator is the leader.
        v_leader: Whether the responder is the leader.
        u_search_k: The initiator's search result ``k_u`` (used by the leader
            for the phase-0 injection and the phase-4 recomputation).
        u_first_tick: Whether this is the initiator's first initiated
            interaction of its current clock phase.
        params: Protocol constants (thresholds, the factor 32, …).

    Returns:
        The leader's corrected estimate of ``log2 n`` when the initiator is
        the leader and just recomputed it (first tick of phase 4); ``None``
        otherwise.
    """
    corrected: Optional[int] = None

    # Lines 1-2: agents enter error detection on first contact with the stage.
    if not v.entered:
        v.enter()
    if not u.entered:
        u.enter(leader_k=u_search_k if u_leader else None)

    # Synchronisation check (Appendix B): a drift of two or more phases means
    # the phase clock failed for one of the participants.
    if u.phase >= 0 and v.phase >= 0 and abs(u.phase - v.phase) >= 2:
        u.error = True
        v.error = True

    phase = u.phase
    if phase == 0:
        if u_leader and u_first_tick:
            # Load infusion: 2^(k_u - infusion_offset) tokens, stored in powers of two.
            v.k = u_search_k - params.infusion_offset
    elif phase == 1:
        if not u_leader and not v_leader:
            u.k, v.k = balance_powers_of_two(u.k, v.k)
    elif phase == 2:
        if u_first_tick:
            if u.k == EMPTY or u_leader:
                u.load = 0
            elif u.k == 0:
                u.load = params.error_detection_load
            else:
                # Powers-of-two balancing left more than one token here: the
                # injected load exceeded the population, so k_u overshot.
                u.error = True
                u.load = 0
    elif phase == 3:
        u.load, v.load = split_evenly(u.load, v.load)
    elif phase >= 4:
        if u_leader and u_first_tick:
            # Line 19: recompute the approximation of log2 n from the load.
            if u.load > 0:
                corrected = int(round(u_search_k + 3 - math.log2(u.load)))
                u.k = corrected
            else:
                u.error = True
        if u.load < params.error_min_load or abs(u.load - v.load) > params.error_max_discrepancy:
            # Lines 20-21: balancing error detected.
            u.error = True
        # Line 22: broadcast the result from the leader.
        top = max(u.k, v.k)
        u.k = top
        v.k = top

    # The error flag spreads by one-way epidemics in every phase.
    if v.error:
        u.error = True
    elif u.error:
        v.error = True
    return corrected
