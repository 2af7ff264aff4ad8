"""Tests for repro.stats.confidence.

The per-trial spread predicate and stopping rule the prefix scan is held
equal to are the reference's (``tests/oracle/rulegen_reference.py``), not
the package's: ``first_satisfied`` must agree with a copy it shares no
code with.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.contract import (
    CONFIDENCE_TEST_MAX_TRIALS,
    RULEGEN_CONFIDENCE,
    RULEGEN_MIN_TRIALS,
)
from repro.stats.confidence import ConfidenceTest, normal_quantile, zscores

from oracle.rulegen_reference import all_satisfied, is_satisfied, spread_is_confident


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.999) == pytest.approx(3.0902, abs=1e-3)

    def test_monotone(self):
        assert normal_quantile(0.99) < normal_quantile(0.999)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)


class TestZscores:
    def test_standardisation(self):
        z = zscores([1.0, 2.0, 3.0])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0)

    def test_constant_sample_maps_to_zeros(self):
        assert np.allclose(zscores([5.0, 5.0, 5.0]), 0.0)

    def test_empty(self):
        assert zscores([]).size == 0


class TestSpreadIsConfident:
    def test_single_value_never_confident(self):
        assert not spread_is_confident([1.0], 0.9)

    def test_wide_spread_is_confident_at_moderate_confidence(self):
        # With ~68 % confidence the quantile is ~0.47 sigma, which a widely
        # spread sample easily straddles.
        values = list(np.linspace(0.0, 10.0, 30))
        assert spread_is_confident(values, 0.68)

    def test_constant_sample_needs_enough_trials(self):
        assert not spread_is_confident([2.0, 2.0], 0.999)
        assert spread_is_confident([2.0] * 40, 0.999)

    @given(st.floats(min_value=0.9, max_value=0.999))
    def test_two_identical_values_not_confident_at_high_confidence(self, confidence):
        # A constant two-trial sample cannot certify a high-confidence bound.
        assert not spread_is_confident([1.0, 1.0], confidence)


class TestConfidenceTest:
    def test_requires_min_trials(self):
        test = ConfidenceTest(confidence=0.9, min_trials=5, max_trials=50)
        assert not is_satisfied(test, [1.0, 2.0, 3.0])

    def test_max_trials_forces_satisfaction(self):
        test = ConfidenceTest(confidence=0.999, min_trials=2, max_trials=5)
        assert is_satisfied(test, [1.0, 1.1, 1.2, 1.3, 1.4])

    def test_all_satisfied_requires_every_column(self):
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=4)
        enough = [1.0, 2.0, 3.0, 4.0]
        assert all_satisfied(test, [enough, enough])
        assert not all_satisfied(test, [enough, [1.0]])

    def test_all_satisfied_empty_columns_is_false(self):
        test = ConfidenceTest()
        assert not all_satisfied(test, [])

    def test_default_trial_bounds_are_the_contract(self):
        """A bare test refuses fewer than ``RULEGEN_MIN_TRIALS`` trials and
        passes unconditionally at ``CONFIDENCE_TEST_MAX_TRIALS``."""
        test = ConfidenceTest()
        assert test.confidence == RULEGEN_CONFIDENCE
        spread = np.random.default_rng(3).normal(size=CONFIDENCE_TEST_MAX_TRIALS)
        assert not is_satisfied(test, spread[: RULEGEN_MIN_TRIALS - 1])
        # Two values that never settle: one short of the cap still fails.
        never = np.tile([0.0, 1e9], CONFIDENCE_TEST_MAX_TRIALS)
        assert not spread_is_confident(
            never[: CONFIDENCE_TEST_MAX_TRIALS - 1], RULEGEN_CONFIDENCE
        )
        assert not is_satisfied(test, never[: CONFIDENCE_TEST_MAX_TRIALS - 1])
        assert is_satisfied(test, never[:CONFIDENCE_TEST_MAX_TRIALS])

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceTest(confidence=1.5)
        with pytest.raises(ValueError):
            ConfidenceTest(min_trials=1)
        with pytest.raises(ValueError):
            ConfidenceTest(min_trials=10, max_trials=5)


class TestDegenerateSamples:
    """Edge cases: n=1 trials and zero-variance (constant) prefixes.

    These are the inputs where a naive implementation divides by zero
    (``std == 0``) or trusts a single observation; every public entry
    point must handle them without warnings and agree with the scalar
    rules.
    """

    def test_single_trial_is_never_confident(self):
        assert not spread_is_confident([3.14], 0.9)
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=50)
        assert not is_satisfied(test, [3.14])
        assert test.first_satisfied(([3.14],)) is None

    def test_single_trial_zero_value(self):
        # zero mean AND zero spread: both normalisations degenerate
        assert np.allclose(zscores([0.0]), 0.0)
        assert not spread_is_confident([0.0], 0.999)

    def test_confidence_arbitrarily_close_to_one(self):
        # 1 - confidence underflows toward zero: the constant-sample rule
        # divides by it and must stay finite (guarded at 1e-12).
        confidence = 1.0 - 1e-13
        assert not spread_is_confident([2.0, 2.0], confidence)
        # the trial requirement is capped, so a long constant sample still
        # passes rather than demanding ~1e13 trials
        assert spread_is_confident([2.0] * 30, confidence)

    def test_zero_variance_prefix_then_spread(self):
        """A constant prefix must follow the constant rule, then hand over
        to the spread rule the moment variance appears."""
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=100)
        # constant rule needs ceil(1/(1-0.9)) = 10 trials; variance starts
        # at trial 8, so the constant rule never fires and the spread rule
        # decides.
        column = np.array([5.0] * 7 + [5.0, 25.0, -15.0, 5.1, 4.9])
        naive = TestFirstSatisfied._naive(test, (column,), 1)
        assert test.first_satisfied((column,)) == naive

    def test_zero_variance_prefix_satisfies_constant_rule(self):
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=100)
        column = np.full(15, 7.5)
        # ceil(1 / (1 - 0.9)) constant trials satisfy the test; in float
        # arithmetic 1 / (1 - 0.9) lands just above 10, so the rule
        # demands 11.
        assert test.first_satisfied((column,)) == 11
        assert test.first_satisfied((column[:10],)) is None

    def test_near_zero_variance_prefix_matches_scalar(self):
        """Variance within float error of zero must not misclassify."""
        test = ConfidenceTest(confidence=0.999, min_trials=2, max_trials=100)
        base = 1e9
        column = np.full(40, base)
        column[20:] += 1e-7  # far below the running-stats error bound
        naive = TestFirstSatisfied._naive(test, (column,), 1)
        assert test.first_satisfied((column,)) == naive

    def test_mixed_constant_and_spread_columns(self):
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=100)
        constant = np.zeros(20)
        spread = np.concatenate([[0.0, 10.0, -10.0], np.full(17, 0.1)])
        naive = TestFirstSatisfied._naive(test, (constant, spread), 1)
        assert test.first_satisfied((constant, spread)) == naive


class TestFirstSatisfied:
    """The vectorized prefix scan must agree with the sequential loop."""

    @staticmethod
    def _naive(test, columns, start):
        length = len(columns[0])
        for t in range(start, length + 1):
            if all_satisfied(test, [column[:t] for column in columns]):
                return t
        return None

    def test_matches_sequential_loop_on_random_columns(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            length = int(rng.integers(1, 70))
            test = ConfidenceTest(
                confidence=float(rng.choice([0.9, 0.95, 0.999])),
                min_trials=int(rng.integers(2, 10)),
                max_trials=int(rng.integers(10, 60)),
            )
            columns = []
            for _ in range(int(rng.integers(1, 4))):
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    column = np.zeros(length)
                elif kind == 1:
                    column = np.full(length, float(rng.normal()))
                elif kind == 2:
                    column = rng.normal(size=length) * (
                        10.0 ** float(rng.integers(-6, 6))
                    )
                else:
                    column = np.round(rng.normal(size=length), 1)
                columns.append(column)
            start = int(rng.integers(1, 5))
            assert test.first_satisfied(columns, start=start) == self._naive(
                test, columns, start
            )

    def test_constant_columns_follow_the_scalar_constant_rule(self):
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=100)
        zeros = np.zeros(40)
        # The scalar test accepts a constant sample once it has
        # ceil(1 / (1 - confidence)) = 10 trials.
        assert test.first_satisfied((zeros,)) == self._naive(test, (zeros,), 1)

    def test_start_skips_earlier_prefixes(self):
        test = ConfidenceTest(confidence=0.9, min_trials=2, max_trials=100)
        spread = np.array([0.0, 10.0, -10.0, 0.1, 0.2, 0.3])
        first = test.first_satisfied((spread,))
        assert first is not None
        assert test.first_satisfied((spread,), start=first + 1) == self._naive(
            test, (spread,), first + 1
        )

    def test_max_trials_prefix_always_satisfies(self):
        test = ConfidenceTest(confidence=0.999, min_trials=2, max_trials=4)
        flat = np.array([1.0, 1.1, 1.05, 1.02, 1.01])
        assert test.first_satisfied((flat,)) == 4

    def test_empty_and_mismatched_columns(self):
        test = ConfidenceTest()
        assert test.first_satisfied(()) is None
        assert test.first_satisfied((np.zeros(3),)) is None  # < min_trials
        with pytest.raises(ValueError):
            test.first_satisfied((np.zeros(3), np.zeros(4)))


_CONSTANTS = st.sampled_from(
    [0.0, -0.0, -1.0, -3.5e7, 0.1, 5e-324, -2.5e-320, 2.2250738585072014e-308,
     1e-140, 1e140, 1e300, -1e300]
)
_ANY = st.floats(allow_nan=True, allow_infinity=True)
_NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan])


@st.composite
def _constant_prefix_columns(draw, length):
    """An exactly constant, finite prefix, then arbitrary values."""
    run = draw(st.integers(0, length))
    tail = draw(st.lists(_ANY, min_size=length - run, max_size=length - run))
    return np.array([draw(_CONSTANTS)] * run + tail, dtype=float)


@st.composite
def _non_finite_columns(draw, length):
    """Finite values with ``inf`` / ``nan`` mixed in anywhere."""
    values = draw(
        st.lists(
            st.one_of(_NON_FINITE, st.floats(-1e3, 1e3), _CONSTANTS),
            min_size=length,
            max_size=length,
        )
    )
    return np.array(values, dtype=float)


@st.composite
def _cases(draw):
    length = draw(st.integers(1, 45))
    min_trials = draw(st.integers(2, 12))
    test = ConfidenceTest(
        confidence=draw(st.sampled_from([0.9, 0.95, 0.99, 0.999])),
        min_trials=min_trials,
        max_trials=draw(st.integers(min_trials, 60)),
    )
    column = st.one_of(_constant_prefix_columns(length), _non_finite_columns(length))
    columns = draw(st.lists(column, min_size=1, max_size=3))
    return test, columns


class TestConstantPrefixRule:
    """An exactly constant, finite prefix is settled by the constant-sample
    rule; every verdict still equals the sequential loop."""

    @settings(max_examples=300, deadline=None)
    @given(_cases())
    # np.std of 20-31 copies of 1e300 overflows to inf: not "constant".
    @example((ConfidenceTest(0.9, 2, 60), [np.full(40, 1e300)]))
    @example((ConfidenceTest(0.9, 2, 60), [np.full(40, 5e-324)]))
    # A huge trial after the prefixes that already pass must not poison
    # their running statistics.
    @example((ConfidenceTest(0.9, 2, 7), [np.array([0.0] * 5 + [1.0, 9.4e154])]))
    @example((ConfidenceTest(0.9, 2, 7), [np.array([0.0] * 5 + [1.0, np.inf])]))
    def test_every_start_matches_the_sequential_loop(self, case):
        test, columns = case
        with np.errstate(all="ignore"):
            for start in range(1, len(columns[0]) + 2):
                assert test.first_satisfied(columns, start=start) == (
                    TestFirstSatisfied._naive(test, columns, start)
                ), start

    @pytest.mark.parametrize("value", [0.0, -2.0, 0.1, 7.5e-9, 3.3e12])
    @pytest.mark.parametrize("length", [8, 9, 20, 40])
    def test_a_whole_constant_column_costs_no_exact_check(
        self, monkeypatch, value, length
    ):
        calls = []
        exact = ConfidenceTest._is_satisfied_exact

        def counted(self, column, t, quantile):
            calls.append(t)
            return exact(self, column, t, quantile)

        monkeypatch.setattr(ConfidenceTest, "_is_satisfied_exact", counted)
        test = ConfidenceTest(confidence=0.95, min_trials=8, max_trials=60)
        columns = (np.full(length, value), np.full(length, value / 3.0))
        for start in range(1, length + 2):
            got = test.first_satisfied(columns, start=start)
            assert got == TestFirstSatisfied._naive(test, columns, start)
        assert calls == []

    def test_a_non_constant_column_still_pays_exact_checks(self, monkeypatch):
        """The counter above has teeth: a column whose spread sits on the
        noise floor is re-checked exactly."""
        calls = []
        exact = ConfidenceTest._is_satisfied_exact

        def counted(self, column, t, quantile):
            calls.append(t)
            return exact(self, column, t, quantile)

        monkeypatch.setattr(ConfidenceTest, "_is_satisfied_exact", counted)
        test = ConfidenceTest(confidence=0.95, min_trials=8, max_trials=60)
        column = np.full(40, 1e9)
        column[1::2] += 1e-7
        assert test.first_satisfied((column,)) == TestFirstSatisfied._naive(
            test, (column,), 1
        )
        assert calls
