"""Spans for the traced benchmark run, kept in memory and written at the end.

The traced run wraps public entry points of each layer from here, never
from inside the program:

* ``counting``: the protocol instance's ``delta_key``;
* ``engine.samplers``: ``sample`` / ``update`` / ``rebuild`` of every
  concrete ``WeightedSampler`` subclass;
* ``engine.vectorized``: ``next_pair`` / ``next_skip`` / ``set_count`` of the
  NumPy pair kernels;
* ``engine.convergence``: the convergence predicate object;
* ``experiments`` and ``server``: the sweep executor and the
  ``ReproClient`` calls.

Hot spans (millions per run) are aggregated per name into call count,
total time and self time; coarse spans (iterations, simulations, jobs) are
also kept one by one with start, end and parent.  A span's self time is its
duration minus the time its child spans cover.  The wrappers call the
original with the original arguments and touch no random stream, so a
traced run is stream-identical to an untraced one.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "DeltaKeyProbe", "patched", "span_or_null"]


class SpanRecorder:
    """Nested spans with per-name aggregates and a verbatim coarse log."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: Child-time accumulators of the open spans; slot 0 is the root.
        self._child: List[float] = [0.0]
        self._open: List[int] = []
        self.spans: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()
        #: Names of the aggregated (hot) spans made by :meth:`wrap`.
        self._hot: set = set()

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` (positional arguments only) as an aggregated span."""
        stat = self._stat(name)
        self._hot.add(name)
        child = self._child
        push = child.append
        pop = child.pop
        clock = time.perf_counter

        def traced(*args: Any) -> Any:
            push(0.0)
            started = clock()
            try:
                return function(*args)
            finally:
                elapsed = clock() - started
                inner = pop()
                child[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner

        return traced

    def hot_calls(self) -> int:
        """Calls made through :meth:`wrap` wrappers."""
        return sum(int(self.stats[name][0]) for name in self._hot)

    @staticmethod
    def wrap_cost_s(calls: int = 200_000) -> float:
        """Seconds one :meth:`wrap` call adds to its caller's self time.

        Measured on a no-op: the wall time of the wrapped calls minus the
        time the wrapper recorded inside them (best of three).
        """

        def noop() -> None:
            return None

        best = float("inf")
        for _ in range(3):
            recorder = SpanRecorder()
            wrapped = recorder.wrap("noop", noop)
            started = time.perf_counter()
            for _ in range(calls):
                wrapped()
            elapsed = time.perf_counter() - started
            best = min(best, (elapsed - recorder.total_s("noop")) / calls)
        return best

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Dict[str, Any]]:
        """A coarse span, aggregated under ``name`` and also logged verbatim."""
        stat = self._stat(name)
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attributes,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        self._child.append(0.0)
        started = time.perf_counter()
        try:
            yield record
        finally:
            ended = time.perf_counter()
            elapsed = ended - started
            inner = self._child.pop()
            self._child[-1] += elapsed
            self._open.pop()
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - inner
            record["start_s"] = started - self._origin
            record["end_s"] = ended - self._origin

    def logged(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` timed as a coarse span: every call is logged."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def durations(self, name: str) -> List[float]:
        """Durations of the logged spans called ``name``."""
        return [span["end_s"] - span["start_s"] for span in self.spans if span["name"] == name]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def self_s_excluding(self, names: Tuple[str, ...]) -> float:
        """Summed self time of every span whose name is not in ``names``."""
        return sum(stat[2] for name, stat in self.stats.items() if name not in names)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "aggregates": {
                name: {"calls": int(stat[0]), "total_s": stat[1], "self_s": stat[2]}
                for name, stat in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def span_or_null(recorder: Optional[SpanRecorder], name: str, **attributes: Any) -> Any:
    """``recorder.span(...)``, or a no-op context in the untraced run."""
    return recorder.span(name, **attributes) if recorder is not None else nullcontext()


class DeltaKeyProbe:
    """Wrap one protocol instance's ``delta_key`` and log its key pairs.

    The backend binds ``protocol.delta_key`` when it is constructed, so the
    instance attribute set here is what the event loop calls.  The span
    includes appending the pair and the no-op test (a few list and tuple
    operations); :meth:`repeats` counts repeated pairs after the run.
    """

    def __init__(self, recorder: SpanRecorder, protocol: Any) -> None:
        self.pairs: List[Tuple[Any, Any]] = []
        self.noops = 0
        original = protocol.delta_key
        pairs = self.pairs

        def delta_key(key_a: Any, key_b: Any, *rest: Any) -> Any:
            pairs.append((key_a, key_b))
            result = original(key_a, key_b, *rest)
            new_a, new_b = result
            if (new_a == key_a and new_b == key_b) or (new_a == key_b and new_b == key_a):
                self.noops += 1
            return result

        protocol.delta_key = recorder.wrap("counting.delta_key", delta_key)

    def repeats(self) -> int:
        """Calls whose ``(key_a, key_b)`` pair was already seen in this run."""
        return len(self.pairs) - len(set(self.pairs))


def _concrete_samplers() -> List[type]:
    """Every loaded ``WeightedSampler`` subclass, however deep."""
    samplers = importlib.import_module("repro.engine.samplers")
    importlib.import_module("repro.engine.vectorized")  # defines more subclasses
    found: List[type] = []
    pending = list(samplers.WeightedSampler.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _kernel_classes() -> List[type]:
    vectorized = importlib.import_module("repro.engine.vectorized")
    return [
        getattr(vectorized, name)
        for name in ("FactorisedPairKernel", "DenseBlockKernel")
        if hasattr(vectorized, name)
    ]


#: (layer prefix, class finder, method names) of the class-level patches.
_CLASS_PATCHES = (
    ("samplers", _concrete_samplers, ("sample", "update", "rebuild")),
    ("vectorized", _kernel_classes, ("next_pair", "next_skip", "set_count")),
)


@contextmanager
def patched(
    recorder: SpanRecorder,
    extra: Tuple[Tuple[Any, str, str], ...] = (),
) -> Iterator[None]:
    """Install the class-level wrappers for the duration of the block.

    Only methods a class defines itself are wrapped, so an inherited method
    is never timed twice.  ``extra`` adds ``(owner, attribute, span name)``
    patches logged as coarse spans (the sweep executor, the client calls).
    Everything is restored on exit.
    """
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for prefix, finder, methods in _CLASS_PATCHES:
            for cls in finder():
                for method in methods:
                    if method in cls.__dict__:
                        original = cls.__dict__[method]
                        originals.append((cls, method, original))
                        setattr(cls, method, recorder.wrap(f"{prefix}.{method}", original))
        for owner, attribute, name in extra:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            if isinstance(original, staticmethod):
                setattr(owner, attribute, staticmethod(recorder.logged(name, original.__func__)))
            else:
                setattr(owner, attribute, recorder.logged(name, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
