"""Tests for the calibrated image-classification profiles."""

import numpy as np
import pytest

from repro.vision.profiles import (
    IC_CPU_VERSIONS,
    IC_GPU_VERSIONS,
    NetworkProfile,
    simulate_ic_measurements,
)


class TestProfileTables:
    def test_five_versions_per_device(self):
        assert len(IC_CPU_VERSIONS) == 5
        assert len(IC_GPU_VERSIONS) == 5

    def test_same_architectures_both_devices(self):
        cpu_archs = {p.architecture for p in IC_CPU_VERSIONS.values()}
        gpu_archs = {p.architecture for p in IC_GPU_VERSIONS.values()}
        assert cpu_archs == gpu_archs

    def test_gpu_faster_than_cpu(self):
        for name, cpu_profile in IC_CPU_VERSIONS.items():
            gpu_profile = IC_GPU_VERSIONS[name.replace("cpu", "gpu")]
            assert gpu_profile.latency_mean_s < cpu_profile.latency_mean_s

    def test_resnet_most_accurate(self):
        best = min(IC_CPU_VERSIONS.values(), key=lambda p: p.top1_error)
        assert best.architecture == "resnet50"

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile("x", "alexnet", "tpu", 0.4, 0.01)
        with pytest.raises(ValueError):
            NetworkProfile("x", "alexnet", "cpu", 1.4, 0.01)
        with pytest.raises(ValueError):
            NetworkProfile("x", "alexnet", "cpu", 0.4, -0.01)
        with pytest.raises(ValueError, match="latency_cv"):
            NetworkProfile("x", "alexnet", "cpu", 0.4, 0.01, latency_cv=-0.1)


class TestSimulatedMeasurements:
    def test_marginal_errors_match_published(self):
        _, outcomes = simulate_ic_measurements(20000, seed=1)
        for name, profile in IC_CPU_VERSIONS.items():
            assert outcomes[name].error.mean() == pytest.approx(
                profile.top1_error, abs=0.02
            )

    def test_latency_means_match_profiles(self):
        _, outcomes = simulate_ic_measurements(20000, seed=1)
        for name, profile in IC_CPU_VERSIONS.items():
            assert outcomes[name].latency_s.mean() == pytest.approx(
                profile.latency_mean_s, rel=0.05
            )

    def test_confidence_correlates_with_correctness(self):
        _, outcomes = simulate_ic_measurements(5000, seed=2)
        for outcome in outcomes.values():
            correct = outcome.error == 0.0
            assert outcome.confidence[correct].mean() > outcome.confidence[~correct].mean()

    def test_correctness_correlated_across_versions(self):
        _, outcomes = simulate_ic_measurements(5000, seed=3)
        squeeze = outcomes["ic_cpu_squeezenet"].error == 0.0
        resnet = outcomes["ic_cpu_resnet50"].error == 0.0
        joint = float((squeeze & resnet).mean())
        independent = float(squeeze.mean() * resnet.mean())
        assert joint > independent

    def test_deterministic_with_seed(self):
        d1, o1 = simulate_ic_measurements(500, seed=9)
        d2, o2 = simulate_ic_measurements(500, seed=9)
        assert np.array_equal(d1, d2)
        assert np.array_equal(
            o1["ic_cpu_vgg16"].latency_s, o2["ic_cpu_vgg16"].latency_s
        )

    @pytest.mark.parametrize("n_requests", [0, -3, 2.5, 10.0])
    def test_rejects_bad_request_count(self, n_requests):
        with pytest.raises(ValueError, match="n_requests must be an integer >= 1"):
            simulate_ic_measurements(n_requests)

    @pytest.mark.parametrize("sharpness", [-1.4, 0.0, -0.0, np.nan, np.inf])
    def test_rejects_a_sharpness_that_is_not_finite_and_positive(self, sharpness):
        # -1.4 inverted confidence against correctness, 0.0 divided by
        # zero into saturated confidences, NaN made every confidence NaN.
        with pytest.raises(ValueError, match="confidence_sharpness must be"):
            simulate_ic_measurements(100, confidence_sharpness=sharpness)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, -np.inf])
    def test_rejects_a_noise_that_is_not_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="confidence_noise must be"):
            simulate_ic_measurements(100, confidence_noise=noise)

    def test_zero_noise_and_any_positive_sharpness_are_accepted(self):
        _, outcomes = simulate_ic_measurements(
            200, seed=5, confidence_sharpness=0.3, confidence_noise=0.0
        )
        for sample in outcomes.values():
            assert np.all(np.isfinite(sample.confidence))
            # A positive sharpness keeps confidence rising with the margin.
            correct = sample.error == 0.0
            right, wrong = sample.confidence[correct], sample.confidence[~correct]
            assert right.mean() > wrong.mean()

    def test_gpu_profiles_selectable(self):
        _, outcomes = simulate_ic_measurements(
            1000, versions=IC_GPU_VERSIONS, seed=4
        )
        assert set(outcomes) == set(IC_GPU_VERSIONS)
