"""Dead ids in the batch backend's dense regime are released.

An id that no agent holds and no memo entry names is dropped from the
intern table and reused by the next new key; ids the memo may name are
pinned and never released.  Two contracts pin that from outside:

* **Invariant** — after every window, every id an agent holds, the
  histogram counts or a memo entry names (its two sources and every
  result, coin-node leaves included) is interned under its own key, no
  released id is named, and the ids in use are exactly the live and the
  pinned ones.  Checked through ``join``/``leave``,
  ``corrupt_histogram``, restarts and mode flapping, window by window and
  at every checkpoint and timeline event of a run.
* **Bound** — a long ``count-exact`` run holds O(n) ids in use, where a
  table that keeps every key grows with the number of interactions.
"""

import random
from collections import Counter

from repro.engine import Simulator
from repro.engine.backends import _ID_BITS, _CoinNode
from repro.engine.hooks import CallbackHook
from repro.experiments.registry import resolve_protocol
from repro.scenarios.builtin import builtin_scenarios
from repro.scenarios.events import expand_events


def _leaves(entry):
    """The result id pairs of a memo entry, walking its coin nodes."""
    if entry.__class__ is _CoinNode:
        for child in entry.children.values():
            yield from _leaves(child)
    else:
        yield entry


def _named_ids(backend):
    named = set(backend._counts) | set(backend._agents)
    low = (1 << _ID_BITS) - 1
    for pair, entry in backend._memo.items():
        named.update((pair >> _ID_BITS, pair & low))
        for result in _leaves(entry):
            named.update(result)
    return named


def _assert_interned(backend):
    """Every named id maps to its key and back; no released id is named.

    The ids in use are exactly the live ones and the pinned ones.  The
    histogram holds positive counts only (a stray zero entry would inflate
    ``len(_counts)``, which the n/2 rule and the fixed-point check read,
    yet compare equal under ``Counter``'s ``==``).
    """
    ids, keys, free = backend._ids, backend._keys, backend._free
    named = _named_ids(backend)
    for ident in named:
        assert ids[keys[ident]] == ident
    assert len(set(free)) == len(free)
    assert not named & set(free)
    assert all(keys[ident] is None for ident in free)
    assert len(ids) + len(free) == len(keys)
    assert set(ids.values()) == set(backend._counts) | backend._pinned
    counts = backend._counts
    assert all(count > 0 for count in counts.values())
    if backend._prunes:
        assert sum(counts.values()) == backend.n
    else:
        assert counts == dict(Counter(backend._agents))


def _stable_detect(protocol, n=32, seed=9):
    spec = builtin_scenarios()["stable-detect"]
    simulator = Simulator(resolve_protocol(protocol).build(n, {}), n, seed=seed, backend="batch")
    return simulator, spec.budget.budget(n), expand_events(spec.events, n, {}, seed)


def _drive(simulator, budget, window, events=()):
    """Advance window by window, applying ``events`` on time."""
    backend = simulator.backend
    pending = sorted(events, key=lambda event: event.at)
    while backend.interactions < budget:
        stop = min(budget, backend.interactions + window)
        if pending:
            stop = min(stop, pending[0].at)
        backend.advance_to(stop)
        if backend.terminal:
            backend.skip_to(stop)
        _assert_interned(backend)
        if pending and backend.interactions == pending[0].at:
            pending.pop(0).apply(simulator)
            _assert_interned(backend)
    return backend.memo_stats()


def test_flapping_run_through_the_stable_detect_timeline_keeps_ids_interned():
    simulator, budget, events = _stable_detect("approximate-stable")
    memo = _drive(simulator, budget, 64, events)
    # The mode is decided at window starts and stretch ends: ~350 switches.
    assert memo["switches"] > 300
    assert memo["released"] > 0


def test_flapping_run_keeps_ids_interned_at_every_checkpoint():
    simulator, budget, events = _stable_detect("approximate-stable")
    checks = []

    def check(simulator, *details):
        _assert_interned(simulator.backend)
        checks.append(simulator.interactions)

    simulator.hooks.append(
        CallbackHook(on_start=check, on_checkpoint=check, on_timeline_event=check)
    )
    result = simulator.run(
        max_interactions=budget, timeline=events, convergence=lambda view: False,
        check_interval=64,
    )
    assert all(record["fired"] for record in result.extra["timeline"])
    memo = result.extra["telemetry"]["memo"]
    assert memo["switches"] > 300 and memo["released"] > 0
    assert len(checks) > 400


def test_count_exact_keeps_ids_interned_through_population_operations():
    n = 64
    simulator = Simulator(resolve_protocol("count-exact").build(n, {}), n, seed=5, backend="batch")
    backend = simulator.backend
    rng = random.Random(2)

    def donor(key, rng):
        # A victim takes the most common live key: its own may die.
        return backend.state_key_counts().most_common(1)[0][0]

    _drive(simulator, 6_000, 500)
    for operation in (
        lambda: backend.corrupt_histogram(16, donor, rng),
        lambda: backend.leave(8, rng),
        lambda: backend.join(8),
        backend.restart_population,
    ):
        operation()
        _assert_interned(backend)
        _drive(simulator, backend.interactions + 3_000, 700)
    assert backend.memo_stats()["released"] > 0


def test_count_exact_ids_in_use_stay_bounded_by_the_population():
    # A table keeping every key holds one id per key the run has seen, ~8 k
    # after 16 k interactions at n = 64, and grows with the run.
    n = 256
    simulator = Simulator(resolve_protocol("count-exact").build(n, {}), n, seed=1, backend="batch")
    result = simulator.run(max_interactions=200_000)
    memo = result.extra["telemetry"]["memo"]
    assert memo["interned_keys"] <= 4 * n
    assert memo["released"] > 50 * n
    _assert_interned(simulator.backend)


def test_runs_that_always_record_release_nothing():
    # The pruning regime (its kernel keys on ids) through churn and faults,
    # and a dense run below n / 2 live keys.
    simulator = Simulator(
        resolve_protocol("backup-exact").build(400, {}), 400, seed=11, backend="batch"
    )
    backend = simulator.backend
    rng = random.Random(1)
    backend.advance_to(200_000)
    backend.leave(40, rng)
    backend.corrupt_histogram(40, lambda key, rng: next(iter(backend.state_key_counts())), rng)
    backend.restart_population()
    backend.advance_to(400_000)
    _assert_interned(backend)
    assert backend.memo_stats()["released"] == 0
    dense = Simulator(resolve_protocol("approximate").build(256, {}), 256, seed=3, backend="batch")
    assert dense.run(max_interactions=20_000).extra["telemetry"]["memo"]["released"] == 0
