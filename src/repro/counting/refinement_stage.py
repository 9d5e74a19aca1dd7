"""`CountExact` Refinement Stage — Algorithm 5, Section 4.2 (Lemma 11).

Given the leader's estimate ``k = log2 n +- 3`` from the approximation stage,
the refinement stage computes the *exact* population size.  It runs in three
phases counted from the moment an agent enters the stage:

====== ===================================================================
Phase  Action
====== ===================================================================
0      broadcast ``k`` (maximum) and reset all loads to zero
1      the leader injects ``C * 2^k`` tokens (``C = 2^8``); classical balancing
2      every agent multiplies its load by ``2^k``; classical balancing
====== ===================================================================

After phase 2 the total load is ``M = C * 2^{2k} >= 4 n^2`` and every agent's
load is ``M / n ± 1.5`` w.h.p., so the output function
``omega(v) = round(C * 2^{2 k_v} / l_v)`` equals ``n`` exactly (Lemma 11).

Implementation notes (deviations from the pseudo-code):

* The once-per-phase actions (the leader's injection, the ``2^k``
  multiplication) are performed when the agent's phase counter *advances*
  rather than at its first initiated interaction of the phase.  The two are
  equivalent ("exactly once per phase"), but performing them at the phase
  boundary lets the balancing rule be gated on "both agents are in the same
  phase", which is what keeps the total load exactly ``C * 2^{2k}``: without
  the gate, tokens exchanged across the phase-1/phase-2 boundary would be
  multiplied zero or two times, perturbing the total and breaking exactness.
* Classical balancing therefore only runs between two agents whose stage
  phase counters agree (and lie in {1, 2}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..primitives.load_balancing import split_evenly
from .params import CountExactParameters

__all__ = [
    "RefinementStageState",
    "refinement_stage_update",
    "advance_refinement_phase",
    "refinement_output",
    "refinement_estimate",
    "WAITING_PHASE",
]

#: Sentinel phase value meaning "entered the stage, waiting for the first tick".
WAITING_PHASE = -1


@dataclass(slots=True)
class RefinementStageState:
    """Per-agent state of the refinement stage.

    Attributes:
        entered: Whether the agent has entered the refinement stage.
        phase: Stage phase counter (``WAITING_PHASE`` until the first tick
            inside the stage, then 0, 1, 2; frozen at 3 when complete).
        k: The agent's copy of the leader's estimate of ``log2 n``.
        load: Current load used by the classical balancing.
        error: Set by the stable variant's in-stage checks (Appendix F).
    """

    entered: bool = False
    phase: int = WAITING_PHASE
    k: int = 0
    load: int = 0
    error: bool = False

    def key(self) -> Hashable:
        return (self.entered, self.phase, self.k, self.load, self.error)

    def reset(self) -> None:
        """Re-initialise (used when the agent meets a higher junta level)."""
        self.entered = False
        self.phase = WAITING_PHASE
        self.k = 0
        self.load = 0
        self.error = False

    def enter(self, k: int) -> None:
        """Enter the refinement stage carrying the estimate ``k``."""
        self.entered = True
        self.phase = WAITING_PHASE
        self.k = k
        self.load = 0
        self.error = False

    @property
    def finished(self) -> bool:
        """Whether the agent has completed all three phases."""
        return self.phase >= 3


def advance_refinement_phase(
    state: RefinementStageState,
    is_leader: bool,
    check_min_load: bool = False,
    params: CountExactParameters = CountExactParameters(),
) -> None:
    """Advance the stage phase counter by one tick and run phase-entry actions.

    Called by the composed protocol for every clock tick of an entered agent.
    Entering phase 1 triggers the leader's injection of ``C * 2^k`` tokens;
    entering phase 2 triggers the ``2^k`` multiplication (with the stable
    variant's minimum-load check when ``check_min_load`` is set).  The counter
    freezes at 3.
    """
    if not state.entered or state.phase >= 3:
        return
    state.phase += 1
    if state.phase == 1:
        if is_leader:
            state.load = params.refinement_constant << state.k
    elif state.phase == 2:
        if check_min_load and state.load < params.refinement_min_load - 2:
            state.error = True
        state.load = state.load << state.k


def refinement_stage_update(
    u: RefinementStageState,
    v: RefinementStageState,
    check_consistency: bool = False,
) -> None:
    """Apply one interaction of the refinement stage (Algorithm 5).

    The initiator must already be in the stage; the responder is pulled in on
    first contact, inheriting the initiator's ``k`` (phase 0 is the broadcast
    phase, so this matches the ``max`` rule of line 2).

    Args:
        u: Initiator's stage state (mutated).
        v: Responder's stage state (mutated).
        check_consistency: Enable the stable variant's check that interacting
            agents agree on ``k`` (Appendix F).
    """
    if not v.entered:
        v.enter(k=u.k)

    if u.phase <= 0:
        # Phase 0: initialise agents and broadcast k (lines 1-2).  Loads are
        # only cleared for agents that have not progressed past phase 0, so a
        # straggler cannot wipe out the leader's phase-1 injection.
        top = max(u.k, v.k)
        u.k = top
        if v.phase <= 0:
            v.k = top
            v.load = 0
        u.load = 0
        return

    if check_consistency and v.phase > 0 and u.k != v.k:
        u.error = True
        v.error = True

    # Line 8: classical load balancing.  Gated so that tokens never cross the
    # phase-1/phase-2 boundary (which would skip or double the 2^k
    # multiplication): pre-multiplication agents (phase 1) balance among
    # themselves, post-multiplication agents (phase 2 and beyond) among
    # themselves.  Keeping the post-multiplication pool open beyond phase 2
    # lets late stragglers finish smoothing their loads.
    if u.phase == 1 and v.phase == 1:
        u.load, v.load = split_evenly(u.load, v.load)
    elif u.phase >= 2 and v.phase >= 2:
        u.load, v.load = split_evenly(u.load, v.load)


def refinement_output(state: RefinementStageState, params: CountExactParameters) -> Optional[int]:
    """The output function ``omega(v) = round(C * 2^{2k} / l)`` of Lemma 11.

    Returns ``None`` while the agent has no load (e.g. before the stage).
    """
    return refinement_estimate(state.entered, state.k, state.load, params)


def refinement_estimate(
    entered: bool, k: int, load: int, params: CountExactParameters
) -> Optional[int]:
    """:func:`refinement_output` from the stage's fields, e.g. a key's.

    Key-level outputs call it on the fields of a refinement key without
    building a :class:`RefinementStageState`.
    """
    if not entered or load <= 0:
        return None
    numerator = params.refinement_constant << (2 * k)
    # Nearest-integer rounding with pure integer arithmetic.
    return (2 * numerator + load) // (2 * load)
