"""Tests for repro.stats.descriptive.percentiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.descriptive import percentiles


def _same_float(left, right):
    return left == right or (math.isnan(left) and math.isnan(right))


class TestPercentilesKernel:
    """The sort-once kernel is NumPy's ``linear`` rule, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
            # ties: a handful of distinct values, many times over
            st.lists(st.sampled_from([0.0, 0.25, 1.0, math.inf]), min_size=1, max_size=40),
        ),
        q=st.one_of(st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]), st.floats(0.0, 100.0)),
    )
    def test_matches_numpy_linear(self, values, q):
        with np.errstate(all="ignore"):
            want = float(np.percentile(np.array(values), q, method="linear"))
        assert _same_float(percentiles(values, (q,))[0], want)

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 257, 4000])
    def test_matches_numpy_linear_up_to_thousands(self, n, rng):
        values = rng.lognormal(size=n)
        qs = (0.0, 12.5, 50.0, 95.0, 99.0, 99.9, 100.0)
        want = [float(np.percentile(values, q, method="linear")) for q in qs]
        assert percentiles(values, qs) == want
        # any order in, and the caller's array is not sorted in place
        before = values.copy()
        assert percentiles(values[::-1], qs) == want
        assert np.array_equal(values, before)

    def test_single_sample_is_itself_at_every_q(self):
        assert percentiles([0.25], (0.0, 50.0, 100.0)) == [0.25, 0.25, 0.25]

    def test_empty_and_nan_samples_rank_to_nan(self):
        assert all(math.isnan(v) for v in percentiles([], (50.0, 95.0)))
        assert math.isnan(percentiles([1.0, math.nan, 2.0], (50.0,))[0])

    @pytest.mark.parametrize("q", [-0.1, 100.5, math.nan])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(ValueError, match="percentile must be in"):
            percentiles([1.0, 2.0], (50.0, q))
