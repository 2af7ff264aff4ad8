"""Tests for repro.stats.descriptive."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.descriptive import (
    StreamingMoments,
    geometric_mean,
    percentile,
    percentiles,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSummarize:
    def test_basic_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict_round_trip(self):
        summary = summarize([5.0, 7.0])
        d = summary.as_dict()
        assert d["count"] == 2
        assert d["mean"] == pytest.approx(6.0)
        assert set(d) == {"count", "mean", "std", "min", "p50", "p90", "p99", "max"}

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_bounds_hold(self, values):
        summary = summarize(values)
        slack = 1e-6 * max(1.0, abs(summary.maximum), abs(summary.minimum))
        assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
        assert summary.minimum - slack <= summary.p50 <= summary.maximum + slack


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 120)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


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

    def test_percentile_and_summarize_route_through_it(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        p50, p90, p99 = percentiles(values, (50.0, 90.0, 99.0))
        assert percentile(values, 90) == p90
        summary = summarize(values)
        assert (summary.p50, summary.p90, summary.p99) == (p50, p90, p99)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestStreamingMoments:
    def test_matches_numpy(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        moments = StreamingMoments()
        moments.extend(data)
        assert moments.count == len(data)
        assert moments.mean == pytest.approx(np.mean(data))
        assert moments.variance == pytest.approx(np.var(data))
        assert moments.std == pytest.approx(np.std(data))

    def test_empty_defaults(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.mean == 0.0
        assert moments.variance == 0.0

    def test_rejects_non_finite(self):
        moments = StreamingMoments()
        with pytest.raises(ValueError):
            moments.update(math.inf)

    def test_merge_equals_combined_stream(self):
        left, right = StreamingMoments(), StreamingMoments()
        left.extend([1.0, 2.0, 3.0])
        right.extend([10.0, 20.0])
        merged = left.merge(right)
        combined = StreamingMoments()
        combined.extend([1.0, 2.0, 3.0, 10.0, 20.0])
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)

    def test_merge_with_empty(self):
        left = StreamingMoments()
        left.extend([2.0, 4.0])
        merged = left.merge(StreamingMoments())
        assert merged.mean == pytest.approx(3.0)

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
    )
    def test_merge_property(self, a, b):
        left, right = StreamingMoments(), StreamingMoments()
        left.extend(a)
        right.extend(b)
        merged = left.merge(right)
        assert merged.mean == pytest.approx(np.mean(a + b), rel=1e-9, abs=1e-9)
