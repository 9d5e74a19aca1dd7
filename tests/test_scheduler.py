"""Unit tests for the interaction schedulers."""

import pytest

from repro.engine.errors import ConfigurationError, SimulationError
from repro.engine.rng import make_rng
from repro.engine.scheduler import SequenceScheduler, UniformRandomScheduler


def test_uniform_scheduler_returns_distinct_in_range_pairs():
    scheduler = UniformRandomScheduler()
    rng = make_rng(0, "scheduler")
    for interaction in range(500):
        initiator, responder = scheduler.next_pair(10, rng, interaction)
        assert 0 <= initiator < 10
        assert 0 <= responder < 10
        assert initiator != responder


def test_uniform_scheduler_covers_all_ordered_pairs():
    scheduler = UniformRandomScheduler()
    rng = make_rng(1, "scheduler")
    seen = {scheduler.next_pair(3, rng, i) for i in range(300)}
    assert seen == {(a, b) for a in range(3) for b in range(3) if a != b}


def test_uniform_scheduler_rejects_tiny_population():
    with pytest.raises(ConfigurationError):
        UniformRandomScheduler().next_pair(1, make_rng(0), 0)


def test_sequence_scheduler_replays_and_exhausts():
    scheduler = SequenceScheduler([(0, 1), (1, 2)])
    rng = make_rng(0)
    assert scheduler.next_pair(3, rng, 0) == (0, 1)
    assert scheduler.next_pair(3, rng, 1) == (1, 2)
    with pytest.raises(SimulationError):
        scheduler.next_pair(3, rng, 2)
    scheduler.reset()
    assert scheduler.next_pair(3, rng, 0) == (0, 1)


def test_sequence_scheduler_validates_pairs():
    with pytest.raises(ConfigurationError):
        SequenceScheduler([(1, 1)])
    with pytest.raises(ConfigurationError):
        SequenceScheduler([])
