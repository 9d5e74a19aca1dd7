"""Expansion of declarative event specs into engine timeline events.

An :class:`~repro.scenarios.spec.EventSpec` is a schedule *template*
(relative fire times, fractional magnitudes, parameter references); this
module resolves it against a concrete cell — population size, parameter
variant, and run seed — into the :class:`~repro.engine.hooks.TimelineEvent`
objects the simulator executes.  Each occurrence gets a private random
stream derived from the run seed, so victim selection is reproducible and
independent of the simulation's own randomness.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Union

from ..engine.errors import ConfigurationError
from ..engine.hooks import TimelineEvent
from ..engine.rng import SeedLike, make_rng
from ..engine.simulator import Simulator
from .faults import resolve_fault
from .spec import EventSpec

__all__ = ["expand_events", "resolve_fraction"]

def resolve_fraction(
    fraction: Optional[Union[float, str]], params: Dict[str, Any]
) -> Optional[float]:
    """Resolve a fraction literal or parameter reference against cell params."""
    if fraction is None:
        return None
    if isinstance(fraction, str):
        if fraction not in params:
            raise ConfigurationError(
                f"event fraction references unknown parameter {fraction!r}"
            )
        fraction = params[fraction]
    fraction = float(fraction)
    if not 0 < fraction <= 1:
        raise ConfigurationError("event fraction must lie in (0, 1]")
    return fraction


def _magnitude(
    spec: EventSpec, fraction: Optional[float], simulator: Simulator
) -> int:
    """Number of agents an event touches, resolved at fire time.

    Fractions apply to the population *at the moment the event fires* (churn
    compounds across a timeline); a resolved magnitude of at least 1 keeps
    small-n smoke grids meaningful.
    """
    if spec.count is not None:
        return spec.count
    assert fraction is not None  # enforced by EventSpec validation
    return max(1, round(fraction * simulator.n))


def _build_apply(
    spec: EventSpec,
    fraction: Optional[float],
    rng: random.Random,
):
    """The TimelineEvent.apply closure for one occurrence of ``spec``."""

    def apply(simulator: Simulator) -> Dict[str, Any]:
        backend = simulator.backend
        if spec.kind == "join":
            details = backend.join(_magnitude(spec, fraction, simulator))
        elif spec.kind == "leave":
            details = backend.leave(_magnitude(spec, fraction, simulator), rng)
        elif spec.kind == "replace":
            details = backend.replace(_magnitude(spec, fraction, simulator), rng)
        elif spec.kind == "restart":
            details = backend.restart_population()
        elif spec.kind == "corrupt":
            victims = min(_magnitude(spec, fraction, simulator), simulator.n)
            details = resolve_fault(spec.fault).apply(simulator, victims, rng)
        else:  # pragma: no cover - EventSpec validation forbids this
            raise ConfigurationError(f"unknown event kind {spec.kind!r}")
        if spec.restart and spec.kind in ("join", "leave", "replace"):
            details = {**details, "restart": backend.restart_population()}
        return details

    return apply


def expand_events(
    events: List[EventSpec],
    n: int,
    params: Dict[str, Any],
    seed: SeedLike,
) -> List[TimelineEvent]:
    """Expand a scenario timeline for one concrete run.

    Fire times resolve against the *initial* population size ``n`` (the
    quantity the budget policy also uses); periodic specs expand into one
    event per occurrence.  Fraction parameter references resolve against
    ``params`` eagerly, so a malformed grid fails before any simulation.
    """
    timeline: List[TimelineEvent] = []
    for index, spec in enumerate(events):
        fraction = resolve_fraction(spec.fraction, params)
        base_at = (
            spec.at_interactions
            if spec.at_interactions is not None
            else spec.at.budget(n)
        )
        period = spec.every.budget(n) if spec.every is not None else 0
        for occurrence in range(spec.repeat):
            label = (
                spec.label if spec.repeat == 1 else f"{spec.label}#{occurrence + 1}"
            )
            timeline.append(
                TimelineEvent(
                    at=base_at + occurrence * period,
                    kind=spec.kind,
                    label=label,
                    apply=_build_apply(
                        spec,
                        fraction,
                        make_rng(seed, "scenario-event", index, occurrence),
                    ),
                )
            )
    return timeline
