"""Tests for the latent difficulty model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr

from repro.datasets.difficulty import DifficultyModel, DifficultyProfile


def _correctness(model, skill, rng):
    """One version's correctness under the probit model: ``s >= d + eps``."""
    eps = rng.normal(0.0, model.profile.idiosyncratic_std, model.difficulties.size)
    return skill >= model.difficulties + eps


def _total_std(model):
    return float(np.hypot(model.profile.difficulty_std, model.profile.idiosyncratic_std))


class TestProfileValidation:
    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            DifficultyProfile(idiosyncratic_std=-0.1)

    def test_rejects_zero_difficulty_std(self):
        with pytest.raises(ValueError):
            DifficultyProfile(difficulty_std=0.0)


class TestDifficultyModel:
    def test_rejects_zero_requests(self, rng):
        with pytest.raises(ValueError):
            DifficultyModel(0, rng=rng)

    def test_difficulties_shared_across_versions(self, rng):
        model = DifficultyModel(500, rng=rng)
        d1 = model.difficulties
        d2 = model.difficulties
        assert np.array_equal(d1, d2)
        # returned arrays are copies — mutating one must not affect the model
        d1[0] += 100.0
        assert model.difficulties[0] != d1[0]

    def test_skill_calibration_matches_target(self, rng):
        model = DifficultyModel(20000, rng=rng)
        for target in (0.1, 0.25, 0.4):
            skill = model.skill_for_error_rate(target)
            empirical = 1.0 - _correctness(model, skill, rng).mean()
            assert empirical == pytest.approx(target, abs=0.02)

    def test_expected_error_rate_closed_form(self, rng):
        model = DifficultyModel(10, rng=rng)
        skill = model.skill_for_error_rate(0.3)
        assert 1.0 - ndtr(skill / _total_std(model)) == pytest.approx(0.3, abs=1e-9)

    def test_skill_rejects_degenerate_rates(self, rng):
        model = DifficultyModel(10, rng=rng)
        with pytest.raises(ValueError):
            model.skill_for_error_rate(0.0)
        with pytest.raises(ValueError):
            model.skill_for_error_rate(1.0)

    def test_higher_skill_is_weakly_better(self, rng):
        model = DifficultyModel(5000, rng=rng)
        weak = _correctness(model, model.skill_for_error_rate(0.4), rng)
        strong = _correctness(model, model.skill_for_error_rate(0.1), rng)
        assert strong.mean() > weak.mean()

    def test_correctness_correlated_across_versions(self, rng):
        # A request that is easy (low difficulty) should tend to be answered
        # correctly by both a weak and a strong version.
        model = DifficultyModel(5000, rng=rng)
        weak = _correctness(model, model.skill_for_error_rate(0.4), rng)
        strong = _correctness(model, model.skill_for_error_rate(0.2), rng)
        both_correct = float((weak & strong).mean())
        independent = float(weak.mean() * strong.mean())
        assert both_correct > independent

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_calibration_property(self, target):
        rng = np.random.default_rng(7)
        model = DifficultyModel(8000, rng=rng)
        skill = model.skill_for_error_rate(target)
        empirical = 1.0 - _correctness(model, skill, rng).mean()
        assert abs(empirical - target) < 0.05
