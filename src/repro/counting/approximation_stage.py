"""`CountExact` Approximation Stage — Algorithm 4, Section 4.1 (Lemma 10).

The approximation stage computes ``log2 n`` up to a small additive error in
``O(n log n)`` interactions.  The leader starts with one token; at the start
of every phase *every* agent multiplies its load by
``n^eta = 2^(2^(level - 8))`` (derived uniformly from the junta level), and
during the rest of the phase all agents run the classical load-balancing
process of [10].  Before multiplying, the leader checks whether its own load
has reached 4 — in which case the total load is at least ``2n`` w.h.p. and it
computes ``k = i * eta_bits - floor(log2 l)``, which Lemma 10 shows equals
``log2 n`` up to a small additive error.  The ``ApxDone`` flag then spreads
by one-way epidemics.

Implementation notes (deviations from the pseudo-code):

* The once-per-phase actions (the load multiplication, the leader's
  initialisation and decision) run when the agent's phase counter advances
  (:func:`advance_approximation_phase`) rather than at its first initiated
  interaction of the phase; the two are equivalent ("exactly once per
  phase").
* Classical balancing is gated on both agents having performed the same
  number of multiplications (equal ``i``).  Without the gate, tokens crossing
  a phase boundary between an already-multiplied and a not-yet-multiplied
  agent are multiplied zero or two times; at simulation scales the boundary
  window is a sizeable fraction of a phase, and the compounding error drives
  the measured total far away from the ``M = 2^{i * eta}`` invariant the
  leader's formula relies on (we observed three-orders-of-magnitude
  inflation at ``n = 100``).  The gate restores the invariant exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from ..primitives.load_balancing import split_evenly
from .params import CountExactParameters

__all__ = [
    "ApproximationStageState",
    "advance_approximation_phase",
    "approximation_stage_update",
]


@dataclass(slots=True)
class ApproximationStageState:
    """Per-agent state of the approximation stage.

    Attributes:
        i: Phase counter within the stage (number of multiplications done).
        load: Current load ``l_v`` used by the classical balancing.
        k: The leader's estimate of ``log2 n`` (set when the stage concludes).
        apx_done: Whether the stage has concluded (spread by epidemics).
    """

    i: int = 0
    load: int = 0
    k: int = 0
    apx_done: bool = False

    def key(self) -> Hashable:
        return (self.i, self.load, self.k, self.apx_done)

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.i = 0
        self.load = 0
        self.k = 0
        self.apx_done = False


def advance_approximation_phase(
    state: ApproximationStageState,
    is_leader: bool,
    level: int,
    params: CountExactParameters = CountExactParameters(),
) -> None:
    """Run the once-per-phase actions of Algorithm 4 (lines 1-7) for one agent.

    Called by the composed protocol whenever the clock of an agent that is in
    the approximation stage ticks.  Performs, in order: the leader's
    first-phase initialisation, the leader's termination check and estimate
    computation, and the per-phase load explosion.
    """
    if state.apx_done:
        return
    eta_bits = params.eta_bits(level)
    if is_leader and state.i == 0:
        # Lines 2-3: initialise the first phase with a single token.
        state.load = 1
    if is_leader and state.load >= params.apx_done_load:
        # Lines 4-6: the total load is at least 2n w.h.p. — conclude.
        state.apx_done = True
        state.k = max(1, state.i * eta_bits - int(math.floor(math.log2(state.load))))
        return
    # Line 7: start a new phase — load explosion.
    state.i += 1
    state.load = state.load << eta_bits


def approximation_stage_update(
    u: ApproximationStageState,
    v: ApproximationStageState,
) -> bool:
    """Apply the every-interaction part of Algorithm 4 (lines 8-9).

    Classical balancing between agents with the same multiplication count,
    and the ``ApxDone`` / ``k`` epidemic.

    Args:
        u: Initiator's stage state (mutated).
        v: Responder's stage state (mutated).

    Returns:
        Whether the update wrote ``u`` or ``v`` (``False`` leaves both as
        they were).
    """
    wrote = False
    # Line 8: classical load balancing (same-``i`` agents only; see module docs).
    if u.i == v.i and not u.apx_done and not v.apx_done:
        load_u, load_v = split_evenly(u.load, v.load)
        # Balancing keeps the total, so ``v.load`` changes iff ``u.load`` does.
        if load_u != u.load:
            u.load = load_u
            v.load = load_v
            wrote = True
    # Line 9: broadcast ApxDone (with the estimate) by one-way epidemics.
    if v.apx_done and not u.apx_done:
        u.apx_done = True
        u.k = v.k
        wrote = True
    elif u.apx_done and not v.apx_done:
        v.apx_done = True
        v.k = u.k
        wrote = True
    return wrote
