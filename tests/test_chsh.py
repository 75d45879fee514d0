"""Sign-pattern bookkeeping for the CHSH combination."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellctx.chsh import (
    ChshCombination,
    DEFAULT_COMBINATION,
    all_combinations,
    chsh_value,
    correlations,
    max_abs_chsh,
)


def test_default_pattern_matches_standard_form():
    # S = E(0,0) + E(1,0) + E(1,1) - E(0,1)
    assert DEFAULT_COMBINATION.sign(0, 0) == 1
    assert DEFAULT_COMBINATION.sign(0, 1) == -1
    assert DEFAULT_COMBINATION.sign(1, 0) == 1
    assert DEFAULT_COMBINATION.sign(1, 1) == 1


def test_exactly_eight_patterns():
    patterns = all_combinations()
    assert len(patterns) == 8
    assert len({p.signs for p in patterns}) == 8
    for p in patterns:
        assert p.signs[0] * p.signs[1] * p.signs[2] * p.signs[3] == -1


def test_even_sign_patterns_rejected():
    with pytest.raises(ValueError, match="product -1"):
        ChshCombination((1, 1, 1, 1))


def test_string_round_trip():
    for pattern in all_combinations():
        assert ChshCombination.from_string(pattern.to_string()) == pattern
    with pytest.raises(ValueError):
        ChshCombination.from_string("+++")


def test_missing_cell_rejected():
    with pytest.raises(ValueError, match="two settings"):
        chsh_value(np.ones((1, 1)), DEFAULT_COMBINATION)
    with pytest.raises(ValueError, match="two settings"):
        chsh_value(np.ones((2, 3)), DEFAULT_COMBINATION)


def test_integer_tables_stay_integer():
    value = chsh_value(np.ones((2, 2), dtype=int), DEFAULT_COMBINATION)
    assert value == 2 and isinstance(value, int)


def test_correlations_of_behaviour_and_counts_layout():
    # p[x, y, a, b] with outcome index 0 = +1: E = p++ + p-- - p+- - p-+.
    p = np.array([[0.5, 0.125], [0.25, 0.125]])
    assert correlations(p) == pytest.approx(0.5 + 0.125 - 0.125 - 0.25)
    counts = np.arange(16).reshape(2, 2, 2, 2)
    assert correlations(counts)[1, 0] == 8 + 11 - 9 - 10


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_outcome_relabeling_preserves_max_abs_s(es):
    """Flipping a -> -a on one Alice setting permutes the 8 patterns."""
    table = np.reshape(es, (2, 2))
    flipped = table * np.array([[-1.0], [1.0]])
    original = max(abs(chsh_value(table, c)) for c in all_combinations())
    assert abs(max_abs_chsh(flipped)[0]) == pytest.approx(original, abs=1e-12)
