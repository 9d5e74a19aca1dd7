"""Junta-driven phase clocks — Section 2, Lemma 5 (following [6] and [18]).

A phase clock lets all agents divide time into *phases* of ``Theta(n log n)``
interactions without knowing ``n``.  Every agent keeps a clock value in
``{0, ..., m-1}`` ("hours on a clock face"); on an interaction the agent
adopts the larger value w.r.t. the circular order modulo ``m``, and members
of the junta additionally advance by one step when they meet an agent showing
the same hour.  An agent enters a new phase whenever its clock value crosses
the ``m-1 -> 0`` boundary; we then say its clock *ticks*.

Two bookkeeping fields accompany the clock (Section 2): ``phase`` counts
completed ticks, and ``first_tick`` is set when the phase counter increments
and cleared once the agent *initiates* its first interaction of the new phase
— the composed protocols use it to run once-per-phase actions such as the
leader's load infusion.

Lemma 5: for any constant ``c`` there is an ``m = m(c) = O(1)`` such that
w.h.p. every phase lasts between ``c n log n`` and ``c n log n +
Theta(n log n)`` interactions.  :class:`JuntaPhaseClockProtocol` runs the
clock alone, so a run can measure phase lengths as a function of ``m`` and
``n``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol
from .junta import JuntaState, junta_update_pair

__all__ = [
    "PhaseClockState",
    "phase_clock_update",
    "JuntaPhaseClockState",
    "JuntaPhaseClockProtocol",
    "DEFAULT_CLOCK_MODULUS",
]

#: Default number of clock "hours".  Calibrated so that one full revolution
#: (one phase) comfortably exceeds one maximum-broadcast plus
#: one load-balancing window at simulation scales up to a few hundred agents;
#: larger populations should use :func:`repro.counting.params.recommended_clock_modulus`.
DEFAULT_CLOCK_MODULUS = 16


@dataclass(slots=True)
class PhaseClockState:
    """Per-agent phase-clock bookkeeping.

    Attributes:
        clock: Current hour in ``{0, ..., m-1}``.
        phase: Number of completed ticks (phases entered) since (re)initialisation.
        first_tick: Pending "first interaction I initiate this phase" flag.
    """

    clock: int = 0
    phase: int = 0
    first_tick: bool = False

    def key(self) -> Hashable:
        return (self.clock, self.phase, self.first_tick)

    def reset(self) -> None:
        """Re-initialise the clock (used when an agent meets a higher junta level)."""
        self.clock = 0
        self.phase = 0
        self.first_tick = False


def phase_clock_update(
    state: PhaseClockState,
    partner_clock: int,
    is_junta: bool,
    modulus: int = DEFAULT_CLOCK_MODULUS,
) -> bool:
    """Advance ``state`` against an observed ``partner_clock``.

    The agent adopts the larger hour w.r.t. the circular order modulo
    ``modulus`` (i.e. when the partner is ahead by at most ``modulus // 2``);
    a junta member additionally advances one step when the hours are equal.
    Returns ``True`` when the update made the clock tick (cross the
    ``m-1 -> 0`` boundary), in which case the phase counter is incremented
    and ``first_tick`` is set.
    """
    if modulus < 4:
        raise ConfigurationError("phase-clock modulus must be at least 4")
    ahead_by = (partner_clock - state.clock) % modulus
    ticked = False
    if 0 < ahead_by <= modulus // 2:
        ticked = partner_clock < state.clock
        state.clock = partner_clock
    elif ahead_by == 0 and is_junta:
        state.clock = (state.clock + 1) % modulus
        ticked = state.clock == 0
    if ticked:
        state.phase += 1
        state.first_tick = True
    return ticked


@dataclass(slots=True)
class JuntaPhaseClockState:
    """Combined junta + phase-clock state used by the standalone clock protocol."""

    junta: JuntaState
    clock: PhaseClockState

    def key(self) -> Hashable:
        return (self.junta.key(), self.clock.key())


class JuntaPhaseClockProtocol(Protocol[JuntaPhaseClockState]):
    """Standalone phase clock driven by its own junta process.

    This is the construction the composed protocols rely on, isolated so that
    a run can measure tick spacing.  The output of an agent is its
    current phase counter.

    Args:
        modulus: Number of hours ``m`` on the clock face.
    """

    name = "junta-phase-clock"

    def __init__(self, modulus: int = DEFAULT_CLOCK_MODULUS) -> None:
        if modulus < 4:
            raise ConfigurationError("phase-clock modulus must be at least 4")
        self.modulus = modulus

    def initial_state(self, agent_id: int) -> JuntaPhaseClockState:
        return JuntaPhaseClockState(junta=JuntaState(), clock=PhaseClockState())

    def transition(
        self,
        initiator: JuntaPhaseClockState,
        responder: JuntaPhaseClockState,
        rng: random.Random,
    ) -> None:
        u_saw_higher, v_saw_higher = junta_update_pair(initiator.junta, responder.junta)
        if u_saw_higher:
            # Re-initialise the clock when a higher junta level is discovered so
            # that the final clock is the one driven by the maximal-level junta.
            initiator.clock.reset()
        if v_saw_higher:
            responder.clock.reset()
        phase_clock_update(
            initiator.clock,
            responder.clock.clock,
            is_junta=initiator.junta.junta,
            modulus=self.modulus,
        )
        # The standalone protocol has no once-per-phase consumer, so the
        # pending flag is cleared immediately after the initiated interaction.
        initiator.clock.first_tick = False

    def output(self, state: JuntaPhaseClockState) -> int:
        return state.clock.phase

    def state_key(self, state: JuntaPhaseClockState) -> Hashable:
        return state.key()

    def copy_state(self, state: JuntaPhaseClockState) -> JuntaPhaseClockState:
        return JuntaPhaseClockState(
            junta=JuntaState(
                level=state.junta.level,
                active=state.junta.active,
                junta=state.junta.junta,
                reached_level=state.junta.reached_level,
            ),
            clock=PhaseClockState(
                clock=state.clock.clock,
                phase=state.clock.phase,
                first_tick=state.clock.first_tick,
            ),
        )
