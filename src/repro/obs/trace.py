"""Per-run tracing: phase timers and a structured runtime event log.

Every backend carries one :class:`RunTracer`.  The hot loops accumulate
wall-clock into named *phases* (``sampling``, ``transition``,
``pair_weights``, ``checkpoint``), and :meth:`RunTracer.note_event`
appends *events* for runtime decisions, each stamped with the interaction
count at which it happened (the engine's draw paths make none today, so
``events`` is empty on their runs).  The simulator folds the tracer into
``SimulationResult.extra["telemetry"]`` at the end of a run.

Every phase counts ``ops`` per operation, but the batch backend's two
regimes time them differently:

* **Pruning regime** (the fused loop over the pair kernel's lists): the
  timers are read per event and phase but charged once per advance
  window.  ``sampling`` is drawing the skip and the pair type,
  ``transition`` the memo lookup or ``delta_key`` plus the histogram
  update, ``pair_weights`` the count pushes with their column walks after
  a configuration-changing event, compactions included.  The refresh of
  the active weight and the row proposals that starts each event falls
  outside all three.  ``ops`` are those of per-event charging:
  ``sampling`` and ``transition`` count one per applied event,
  ``pair_weights`` one per configuration-changing event.
* **Dense regime**: one timer per recorded loop or unrecorded stretch,
  plus one around each memo entry that is not a plain hit and around
  each evaluation in a stretch.  ``transition`` is, in the recorded loop,
  the time of each such entry, which the loop resolves inline: the coin
  walk and, on a miss, decoding the slots that hold no live state,
  ``delta_key``, interning the post-keys, putting the states back,
  pinning and storing the result (a dict write or a coin-tree branch);
  in a stretch it is evaluating an event (``delta_key`` and decoding the
  slots that hold no live state).  ``sampling`` is the rest — the
  agent-pair draws, plain memo hits, histogram and agent-slot upkeep, a
  stretch's key list, census and re-keying pass, and the loops
  themselves; ``pair_weights`` records no time and counts the
  configuration-changing events.  ``sampling`` and ``transition`` count
  one op per interaction.  The per-event timer is
  two ``perf_counter`` reads per stretch event.  Measured against the
  same loop without them (``count-exact``, 2-core x86-64 host, CPython
  3.11, the two alternating), it costs about 3% of a stretch-bound run at
  n = 64 (16,000-interaction windows: median ratio 0.972 without it, 33
  of 40 pairs faster) and about 13% at n = 1000 (300,000 interactions:
  0.874, 8 of 10 pairs, on a host whose run-to-run spread was ±20%).

Determinism contract: tracing only ever reads ``time.perf_counter`` —
never an RNG stream — so instrumented runs are stream-identical to
uninstrumented ones.  All timing lands in fields named ``wall_time_s``,
the key the artifact layer already treats as volatile, so telemetry never
breaks the cache/CLI/server artifact-equivalence checks.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["RunTracer", "TELEMETRY_SCHEMA"]

#: Version stamp of the ``extra["telemetry"]`` layout.
TELEMETRY_SCHEMA = 1

#: Hard cap on recorded events; runtime decisions are rare (a handful per
#: run), so hitting this means a bug — the overflow is counted, not silent.
EVENT_LIMIT = 256


class RunTracer:
    """Accumulate per-phase wall-clock and runtime events for one run."""

    __slots__ = ("_phase_s", "_phase_ops", "events", "events_dropped")

    def __init__(self) -> None:
        self._phase_s: Dict[str, float] = {}
        self._phase_ops: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0

    # --------------------------------------------------------------- phases
    def add(self, phase: str, seconds: float, ops: int = 1) -> None:
        """Charge ``seconds`` of wall-clock (and ``ops`` operations) to a phase."""
        self._phase_s[phase] = self._phase_s.get(phase, 0.0) + seconds
        self._phase_ops[phase] = self._phase_ops.get(phase, 0) + ops

    def phase_seconds(self, phase: str) -> float:
        return self._phase_s.get(phase, 0.0)

    def phases(self) -> Dict[str, Dict[str, Any]]:
        """``{phase: {"wall_time_s": ..., "ops": ...}}`` snapshot.

        The timing field is deliberately named ``wall_time_s`` so the
        artifact stability layer strips it alongside the other volatile
        wall-clock fields.
        """
        return {
            name: {
                "wall_time_s": round(seconds, 9),
                "ops": self._phase_ops.get(name, 0),
            }
            for name, seconds in sorted(self._phase_s.items())
        }

    # --------------------------------------------------------------- events
    def note_event(self, kind: str, at: int, **fields: Any) -> None:
        """Append one runtime event (``at`` = interaction count)."""
        if len(self.events) >= EVENT_LIMIT:
            self.events_dropped += 1
            return
        event: Dict[str, Any] = {"kind": kind, "at": at}
        event.update(fields)
        self.events.append(event)

    # ---------------------------------------------------------------- export
    def as_dict(self) -> Dict[str, Any]:
        """The telemetry skeleton: schema, phases, events."""
        record: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "phases": self.phases(),
            "events": list(self.events),
        }
        if self.events_dropped:
            record["events_dropped"] = self.events_dropped
        return record
