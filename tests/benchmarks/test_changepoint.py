"""Changepoint detection: injected steps flagged, noise and short series not."""

import math

import numpy as np
import pytest

from changepoint import Changepoint, detect_step, shift_zscore
from repro.stats import ConfidenceTest


def noise(n, rng, scale=1.0, loc=100.0):
    return loc + scale * rng.standard_normal(n)


class TestDetectStep:
    def test_injected_step_in_twenty_run_history_is_flagged(self):
        # The acceptance scenario: 20 runs, a step change injected at
        # run 12, amplitude well clear of the run-to-run noise.
        rng = np.random.default_rng(7)
        values = np.concatenate([noise(12, rng), noise(8, rng, loc=110.0)])
        cp = detect_step(values)
        assert cp is not None
        assert cp.index == 12
        assert cp.shift == pytest.approx(10.0, abs=2.0)
        assert cp.relative_shift == pytest.approx(0.1, abs=0.03)
        assert abs(cp.zscore) > 3.0

    def test_all_noise_history_is_not_flagged(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            assert detect_step(noise(20, rng)) is None, seed

    def test_downward_step_reports_negative_shift(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([noise(10, rng), noise(10, rng, loc=90.0)])
        cp = detect_step(values)
        assert cp is not None
        assert cp.shift < 0
        assert cp.zscore < 0
        assert cp.relative_shift < 0

    def test_short_series_returns_none(self):
        rng = np.random.default_rng(1)
        # 9 < 2 * min_segment: too short to split.
        assert detect_step(noise(9, rng)) is None
        assert detect_step([]) is None
        assert detect_step([1.0]) is None

    def test_min_segment_bounds_the_scan(self):
        # A step at index 2 is invisible with min_segment=5...
        values = [1.0] * 2 + [2.0] * 18
        assert detect_step(values, min_segment=5) is None
        # ...but found when the scan may split earlier.
        cp = detect_step(values, min_segment=2)
        assert cp is not None and cp.index == 2

    def test_constant_series_is_not_flagged(self):
        assert detect_step([5.0] * 20) is None
        assert detect_step([0.0] * 20) is None

    def test_step_between_constant_regimes_is_infinite_z(self):
        values = [1.0] * 10 + [2.0] * 10
        cp = detect_step(values)
        assert cp is not None
        assert cp.index == 10
        assert math.isinf(cp.zscore) and cp.zscore > 0

    def test_zero_baseline_step_has_infinite_relative_shift(self):
        # The resilience metrics make this shape real: a perfectly
        # recovering system has time_to_recover_s == 0.0 run after run,
        # then a regression introduces a nonzero tail.
        values = [0.0] * 10 + [2.0] * 10
        cp = detect_step(values)
        assert cp is not None
        assert math.isinf(cp.relative_shift) and cp.relative_shift > 0

    def test_confidence_level_comes_from_the_test(self):
        # A modest shift that a loose test flags and the 99.9 % default
        # does not: the bar is the test's quantile, not a fixed band.
        rng = np.random.default_rng(11)
        values = np.concatenate([noise(10, rng), noise(10, rng, loc=101.0)])
        loose = detect_step(values, test=ConfidenceTest(confidence=0.8))
        strict = detect_step(values, test=ConfidenceTest(confidence=0.999))
        assert loose is not None
        assert strict is None

    def test_rejects_degenerate_min_segment(self):
        with pytest.raises(ValueError):
            detect_step([1.0] * 20, min_segment=1)

    def test_returns_most_significant_split(self):
        # Noise + one big step: the winning split is the step, not a
        # lucky noise split.
        rng = np.random.default_rng(5)
        values = np.concatenate([noise(8, rng), noise(12, rng, loc=150.0)])
        cp = detect_step(values)
        assert cp is not None
        assert cp.index == 8

    def test_result_is_a_changepoint(self):
        values = [1.0] * 10 + [2.0] * 10
        assert isinstance(detect_step(values), Changepoint)


class TestShiftZscore:
    def test_matches_manual_zscore(self):
        baseline = [1.0, 2.0, 3.0, 4.0, 5.0]
        z = shift_zscore(baseline, 6.0)
        arr = np.asarray(baseline)
        assert z == pytest.approx((6.0 - arr.mean()) / arr.std(ddof=1))

    def test_constant_baseline_departure_is_infinite(self):
        assert shift_zscore([2.0] * 5, 3.0) == math.inf
        assert shift_zscore([2.0] * 5, 1.0) == -math.inf

    def test_constant_baseline_match_is_zero(self):
        assert shift_zscore([2.0] * 5, 2.0) == 0.0
        assert shift_zscore([0.0] * 5, 0.0) == 0.0

    def test_zero_baseline_regression_is_infinite(self):
        # The silent-skip bug's exact shape: a metric whose baseline is
        # legitimately 0.0 must still register a regression.
        assert shift_zscore([0.0, 0.0, 0.0], 2.0) == math.inf

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            shift_zscore([1.0], 2.0)
        with pytest.raises(ValueError):
            shift_zscore([], 2.0)

    def test_float_dust_baseline_follows_constant_rule(self):
        base = 1.0
        dust = [base, base * (1 + 1e-16), base * (1 - 1e-16)]
        assert shift_zscore(dust, 2.0) == math.inf
        assert math.isfinite(shift_zscore([1.0, 1.1, 0.9], 2.0))
