"""Unit tests for the tunable constants of the auxiliary protocols."""

import pickle
from dataclasses import replace

import pytest

from repro.primitives.params import FastLeaderElectionParameters, level_scaled


@pytest.mark.parametrize(
    "params",
    [
        FastLeaderElectionParameters(),
        FastLeaderElectionParameters(bits_factor=0.75, bits_level_offset=2, bits_extra=3),
        FastLeaderElectionParameters(bits_factor=3.0, bits_level_offset=1, bits_extra=0),
    ],
)
def test_bit_budget_table_equals_the_level_scaled_formula(params):
    levels = range(31)
    expected = [
        level_scaled(level, factor=params.bits_factor, offset=params.bits_level_offset)
        + params.bits_extra
        for level in levels
    ]
    # Filled on first use, then served from the table: both reads agree.
    assert [params.bits(level) for level in levels] == expected
    assert [params.bits(level) for level in reversed(levels)] == expected[::-1]


def test_bit_budget_table_is_not_a_parameter():
    used = FastLeaderElectionParameters()
    used.bits(4)
    fresh = FastLeaderElectionParameters()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    # A copy with another parameter starts from its own table.
    wider = replace(used, bits_extra=9)
    assert wider.bits(4) == used.bits(4) + 3
    assert pickle.loads(pickle.dumps(used)).bits(4) == used.bits(4)
