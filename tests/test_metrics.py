"""Unit tests for metrics trackers and recorders."""

from collections import Counter

from repro.engine import (
    AggregateInteractionCounter,
    InteractionCounter,
    OutputTraceRecorder,
    StateHistogramRecorder,
    StateSpaceTracker,
    all_outputs_equal,
    simulate,
)
from repro.primitives.epidemic import OneWayEpidemic


def test_state_space_tracker_counts_and_field_ranges():
    tracker = StateSpaceTracker()
    assert tracker.distinct_states == 0
    tracker.observe((0, True))
    tracker.observe((0, True))  # duplicate ignored
    tracker.observe((1, True))
    assert tracker.field_range_sizes == (2, 1)
    tracker.observe((1, False))  # read after growing: recomputed
    # Three joint keys seen, but the state count is the paper's product
    # of per-variable ranges.
    assert tracker.field_range_sizes == (2, 2)
    assert tracker.distinct_states == 4
    assert tracker.as_dict() == {"distinct_states": 4, "field_range_sizes": [2, 2]}


def test_state_space_tracker_flattens_nested_keys():
    tracker = StateSpaceTracker()
    # Components nest tuples (as the composed counting protocols' keys do);
    # each scalar position is one variable, ordered by its index path.
    tracker.observe((("a", 0), 7, ((1, 2), 3)))
    tracker.observe((("b", 0), 7, ((1, 5), 3)))
    tracker.observe((("b", 1), 8, ((1, 5), 4)))
    # Paths (0,0) (0,1) (1,) (2,0,0) (2,0,1) (2,1).
    assert tracker.field_range_sizes == (2, 2, 2, 1, 2, 2)
    assert tracker.distinct_states == 32
    # A component that is a scalar in one key and a tuple in another
    # contributes the scalar at its own path and the tuple's fields below it.
    tracker.observe((None, 7, ((1, 2), 3)))
    assert tracker.field_range_sizes == (1, 2, 2, 2, 1, 2, 2)
    # A key that is not a tuple is one variable.
    scalars = StateSpaceTracker()
    for key in (0, 1, 1, 2):
        scalars.observe(key)
    assert scalars.field_range_sizes == (3,)
    assert scalars.distinct_states == 3


def test_interaction_counter_participation():
    counter = InteractionCounter(3)
    counter.record(0, 1)
    counter.record(0, 2)
    assert counter.total == 2
    assert counter.per_agent == [2, 1, 1]
    assert counter.initiated == [2, 0, 0]
    assert counter.min_participation == 1
    assert counter.agents_never_interacted == 0


def test_aggregate_interaction_counter_interface():
    counter = AggregateInteractionCounter(100)
    counter.total = 12345
    assert counter.min_participation == 0
    assert counter.agents_never_interacted == 0
    assert counter.as_dict() == {"total": 12345, "per_agent_tracked": False}


def test_recorders_work_on_both_backends():
    for backend in ("agent", "batch"):
        trace = OutputTraceRecorder()
        histogram = StateHistogramRecorder()
        result = simulate(
            OneWayEpidemic(),
            32,
            seed=4,
            backend=backend,
            convergence=all_outputs_equal(1),
            hooks=[trace, histogram],
        )
        assert result.converged
        # Start + checkpoints + end were all snapshotted from the histogram.
        assert len(trace.snapshots) >= 2
        assert trace.snapshots[0].output_histogram == Counter({0: 31, 1: 1})
        assert trace.snapshots[-1].output_histogram == Counter({1: 32})
        assert trace.agreement_trajectory()[-1][1] == 1.0
        assert histogram.final_histogram == Counter({1: 32})
