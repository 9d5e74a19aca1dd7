"""Fault models for chaos campaigns.

A fault model corrupts a set of uniformly-random victim agents, with an
implementation for *each* population representation: in-place state surgery
under the per-agent backend (:meth:`AgentBackend.corrupt_agents`) and
key-histogram surgery under the batch backend
(:meth:`BatchBackend.corrupt_histogram`).  The two implementations realise
the same fault law marginalised to the respective representation, which is
what keeps agent/batch scenario results comparable.

Models are registered by name so that scenario specs stay declarative; the
builtin models are protocol-agnostic.  Protocol-specific corruptions can be
registered by callers via :func:`register_fault`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List

from ..counting.keys import PHASE_RESIDUE_MODULUS, clock_from_key, clock_key
from ..engine.backends import BatchBackend
from ..engine.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from ..engine.simulator import Simulator

__all__ = ["FaultModel", "FAULTS", "register_fault", "resolve_fault", "fault_names"]


@dataclass(frozen=True)
class FaultModel:
    """A named corruption law applicable under either backend.

    Attributes:
        name: Registry key used by scenario specs.
        summary: One line shown by ``repro-chaos --list``.
        apply: Callable ``(simulator, victims, rng) -> details`` corrupting
            ``victims`` uniformly-random distinct agents.
    """

    name: str
    summary: str
    apply: Callable[["Simulator", int, random.Random], Dict[str, Any]]


def _reset_fault(simulator: "Simulator", victims: int, rng: random.Random) -> Dict[str, Any]:
    """Victims crash and restart fresh: each becomes a brand-new agent.

    The single-agent analogue of a population restart — the victim loses all
    protocol state (tokens, broadcast values, clock phase) and re-enters in
    the initial state of a never-seen agent id.
    """
    backend = simulator.backend
    if isinstance(backend, BatchBackend):
        changed = backend.corrupt_histogram(
            victims,
            lambda _key, _rng: backend.register_state(backend.fresh_initial_state()),
            rng,
        )
    else:
        changed = backend.corrupt_agents(
            victims, lambda _state, _rng: backend.fresh_initial_state(), rng
        )
    return {"fault": "reset", "victims": victims, "changed": changed}


def _clone_fault(simulator: "Simulator", victims: int, rng: random.Random) -> Dict[str, Any]:
    """Each victim silently adopts the full state of a random donor agent.

    Duplicated state is the classic Byzantine hazard for counting protocols
    (a cloned token pile breaks the Σ = n invariant).  Donors are drawn
    uniformly and independently per victim from the *pre-fault* population —
    under both backends: the batch path samples a histogram snapshot, the
    agent path snapshots its donor states before any victim is overwritten,
    so a victim can never clone another victim's freshly-cloned state.
    """
    backend = simulator.backend
    if isinstance(backend, BatchBackend):
        # Donor keys are drawn from a snapshot of the pre-fault histogram.
        donors: List[Hashable] = []
        weights: List[int] = []
        for key, count in backend.state_key_counts().items():
            donors.append(key)
            weights.append(count)
        total = sum(weights)

        def rewrite(_key: Hashable, fault_rng: random.Random) -> Hashable:
            ticket = fault_rng.randrange(total)
            for donor, weight in zip(donors, weights):
                ticket -= weight
                if ticket < 0:
                    return donor
            return donors[-1]  # unreachable; numerical safety

        changed = backend.corrupt_histogram(victims, rewrite, rng)
    else:
        protocol = simulator.protocol
        states = backend.states
        donor_states = iter(
            [
                protocol.copy_state(states[rng.randrange(len(states))])
                for _ in range(victims)
            ]
        )
        changed = backend.corrupt_agents(
            victims, lambda _state, _rng: next(donor_states), rng
        )
    return {"fault": "clone", "victims": victims, "changed": changed}


def _clock_phase_fault(
    simulator: "Simulator", victims: int, rng: random.Random
) -> Dict[str, Any]:
    """Shift victims' phase-clock counters by a random non-zero offset.

    The composed counting protocols gate their exactness argument on the
    mod-40 phase residue (:mod:`repro.counting.keys`): every consumer of the
    phase counter reads it modulo a divisor of
    :data:`~repro.counting.keys.PHASE_RESIDUE_MODULUS`.  This fault attacks
    exactly that quantity — each victim's phase is shifted by a uniform
    offset in ``{1, ..., 39}``, desynchronising it from its peers (healthy
    clocks stay within one phase of each other, Lemma 5) — which is what the
    stable hybrids' drift detection must catch.

    Under the batch backend the corruption goes through the key codecs:
    decode the reduced clock key, perturb the phase residue, re-encode.
    Under the agent backend the raw (unbounded) counter is shifted by the
    same offset law, which marginalises to the identical residue shift.
    """
    protocol = simulator.protocol
    probe = protocol.initial_state(0)
    clock = getattr(probe, "clock", None)
    if clock is None or not hasattr(clock, "phase"):
        raise ConfigurationError(
            f"clock-phase-corruption needs a protocol with a phase-clock "
            f"component; {protocol.name!r} has none"
        )
    backend = simulator.backend
    if isinstance(backend, BatchBackend):
        key = protocol.state_key(probe)
        # The composed protocols all carry the reduced clock key in slot 1
        # of their state key; refuse layouts this fault cannot decode.
        if (
            not isinstance(key, tuple)
            or len(key) < 2
            or key[1] != clock_key(probe.clock)
        ):
            raise ConfigurationError(
                f"clock-phase-corruption cannot locate the clock key in "
                f"{protocol.name!r} state keys (expected the reduced clock "
                f"key in slot 1)"
            )

        def rewrite(victim_key: Hashable, fault_rng: random.Random) -> Hashable:
            victim_clock = clock_from_key(victim_key[1])  # type: ignore[index]
            victim_clock.phase = (
                victim_clock.phase + fault_rng.randrange(1, PHASE_RESIDUE_MODULUS)
            ) % PHASE_RESIDUE_MODULUS
            return (victim_key[0], clock_key(victim_clock)) + tuple(victim_key[2:])  # type: ignore[index]

        changed = backend.corrupt_histogram(victims, rewrite, rng)
    else:

        def mutate(state: Any, fault_rng: random.Random) -> None:
            state.clock.phase += fault_rng.randrange(1, PHASE_RESIDUE_MODULUS)
            return None

        changed = backend.corrupt_agents(victims, mutate, rng)
    return {"fault": "clock-phase-corruption", "victims": victims, "changed": changed}


FAULTS: Dict[str, FaultModel] = {
    model.name: model
    for model in (
        FaultModel(
            "reset",
            "victims crash and rejoin fresh (lose all protocol state)",
            _reset_fault,
        ),
        FaultModel(
            "clone",
            "victims adopt a random donor's state (duplicates tokens)",
            _clone_fault,
        ),
        FaultModel(
            "clock-phase-corruption",
            "victims' phase-clock residues shift by a random offset (mod-40 gate)",
            _clock_phase_fault,
        ),
    )
}


def register_fault(model: FaultModel) -> None:
    """Register a custom fault model (e.g. a protocol-specific corruption)."""
    if model.name in FAULTS:
        raise ConfigurationError(f"fault model {model.name!r} already registered")
    FAULTS[model.name] = model


def resolve_fault(name: str) -> FaultModel:
    """Look up a fault model, with a helpful error for unknown names."""
    try:
        return FAULTS[name]
    except KeyError:
        known = ", ".join(sorted(FAULTS))
        raise ConfigurationError(
            f"unknown fault model {name!r}; registered models: {known}"
        ) from None


def fault_names() -> List[str]:
    """Registered fault-model names."""
    return list(FAULTS)
