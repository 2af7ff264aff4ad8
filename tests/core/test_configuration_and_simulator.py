"""Tests for configuration enumeration, policy evaluation and tiers."""

import pytest

from repro.core.configuration import DEFAULT_THRESHOLDS, enumerate_configurations
from repro.core.metrics import build_pricing, evaluate_policy
from repro.core.tiers import default_tolerance_grid


class TestToleranceGrid:
    def test_paper_grid(self):
        grid = default_tolerance_grid()
        assert len(grid) == 100
        assert grid[0] == pytest.approx(0.001)
        assert grid[-1] == pytest.approx(0.10)

    def test_custom_grid(self):
        assert default_tolerance_grid(maximum=0.02, step=0.01) == [0.01, 0.02]

    def test_validation(self):
        with pytest.raises(ValueError):
            default_tolerance_grid(maximum=0.0)
        with pytest.raises(ValueError):
            default_tolerance_grid(maximum=0.01, step=0.02)


class TestEnumerateConfigurations:
    def test_design_space_size(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements, thresholds=(0.4, 0.6), policy_kinds=("single", "seq")
        )
        # 5 single versions + 4 fast versions x 2 thresholds
        assert len(configurations) == 5 + 4 * 2

    def test_config_ids_unique(self, ic_measurements):
        configurations = enumerate_configurations(ic_measurements)
        ids = [c.config_id for c in configurations]
        assert len(set(ids)) == len(ids)

    def test_default_space_uses_default_thresholds(self, ic_measurements):
        configurations = enumerate_configurations(ic_measurements)
        expected = 5 + 3 * 4 * len(DEFAULT_THRESHOLDS)
        assert len(configurations) == expected

    def test_two_version_configs_escalate_to_most_accurate(self, ic_measurements):
        accurate = ic_measurements.most_accurate_version()
        for configuration in enumerate_configurations(ic_measurements):
            if configuration.kind != "single":
                assert configuration.versions[1] == accurate

    def test_explicit_fast_versions(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements,
            thresholds=(0.5,),
            policy_kinds=("seq",),
            fast_versions=["ic_cpu_squeezenet"],
        )
        assert len(configurations) == 1
        assert configurations[0].versions[0] == "ic_cpu_squeezenet"

    def test_validation(self, ic_measurements):
        with pytest.raises(ValueError):
            enumerate_configurations(ic_measurements, policy_kinds=("magic",))
        with pytest.raises(ValueError):
            enumerate_configurations(ic_measurements, thresholds=(1.5,))
        with pytest.raises(ValueError):
            enumerate_configurations(ic_measurements, accurate_version="nope")
        with pytest.raises(ValueError):
            enumerate_configurations(ic_measurements, fast_versions=["nope"])


class TestEvaluatePolicy:
    def test_baseline_evaluation_has_no_gain(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements, policy_kinds=("single",)
        )
        baseline = next(
            c
            for c in configurations
            if c.versions == (ic_measurements.most_accurate_version(),)
        )
        result = evaluate_policy(ic_measurements, baseline.policy)
        assert result.error_degradation == 0.0
        assert result.response_time_reduction == pytest.approx(0.0)
        assert result.policy_name == baseline.policy.name

    def test_fast_single_version_evaluation(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements, policy_kinds=("single",)
        )
        fastest = next(
            c
            for c in configurations
            if c.versions == (ic_measurements.fastest_version(),)
        )
        result = evaluate_policy(ic_measurements, fastest.policy)
        assert result.error_degradation > 0.0
        assert result.response_time_reduction > 0.0

    def test_objective_metrics_are_the_outcomes_means(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements, policy_kinds=("single",)
        )
        policy = configurations[0].policy
        pricing = build_pricing(ic_measurements)
        result = evaluate_policy(ic_measurements, policy, pricing=pricing)
        outcomes = policy.evaluate(ic_measurements)
        assert result.mean_response_time_s == outcomes.mean_response_time()
        assert result.mean_invocation_cost == outcomes.mean_invocation_cost(pricing)

    def test_indices_subset(self, ic_measurements):
        configurations = enumerate_configurations(
            ic_measurements, policy_kinds=("single",)
        )
        result = evaluate_policy(
            ic_measurements, configurations[0].policy, indices=range(100)
        )
        assert result.mean_response_time_s > 0.0
