"""Tests for bootstrapping, the routing-rule generator and the tier router."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bootstrap import _TrialStream, bootstrap_configurations
from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.metrics import build_pricing, evaluate_policy
from repro.core.outcome_matrix import OutcomeMatrix
from repro.core.policies import SingleVersionPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.core.rule_generator import RoutingRuleGenerator
from repro.core.tiers import default_tolerance_grid
from repro.service import measure_ic_service
from repro.service.request import Objective
from repro.stats.confidence import ConfidenceTest


@pytest.fixture(scope="module")
def small_space(request):
    """A compact design space over the IC measurements (fast to bootstrap)."""
    ic_measurements = request.getfixturevalue("ic_measurements")
    configurations = enumerate_configurations(
        ic_measurements,
        thresholds=(0.4, 0.5, 0.6, 0.7),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )
    return ic_measurements, configurations


@pytest.fixture(scope="module")
def generator(small_space):
    measurements, configurations = small_space
    return RoutingRuleGenerator(
        measurements,
        configurations,
        confidence=0.95,
        seed=5,
        min_trials=8,
        max_trials=40,
    )


class TestBootstrapConfiguration:
    def test_worst_case_at_least_full_sample_value(self, small_space):
        measurements, configurations = small_space
        config = configurations[0]
        (estimate,) = bootstrap_configurations(
            OutcomeMatrix.build(measurements, [config]),
            [config],
            confidence_test=ConfidenceTest(confidence=0.9, min_trials=5, max_trials=30),
            rng=np.random.default_rng(0),
        )
        assert estimate.n_trials >= 5
        assert estimate.config_id == config.config_id
        assert estimate.error_degradation >= 0.0
        assert estimate.mean_response_time_s > 0.0

    def test_rejects_bad_fraction(self, small_space):
        measurements, configurations = small_space
        with pytest.raises(ValueError):
            bootstrap_configurations(
                OutcomeMatrix.build(measurements, configurations[:1]),
                configurations[:1],
                confidence_test=ConfidenceTest(),
                rng=np.random.default_rng(0),
                sample_fraction=0.0,
            )

    def test_objective_value_accessor(self, generator):
        estimate = generator.results[0]
        assert estimate.objective_value("response-time") == estimate.mean_response_time_s
        with pytest.raises(ValueError):
            estimate.objective_value("happiness")


def _trial(n, size, rng):
    """One trial's draw from a fresh trial stream."""
    (row,) = _TrialStream(rng, n, size).take(1)
    return row


class TestTrialDraws:
    def test_no_replacement(self, rng):
        idx = _trial(20, 10, rng)
        assert len(set(idx.tolist())) == 10

    def test_size_clipped_to_population(self, rng):
        idx = _trial(5, 50, rng)
        assert idx.shape == (5,)

    def test_size_floor_of_one(self, rng):
        assert _trial(5, 0, rng).shape == (1,)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_an_empty_population(self, rng, n):
        with pytest.raises(ValueError, match=f"must be positive, got {n}"):
            _TrialStream(rng, n, 1)

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
    def test_always_within_population(self, n, size):
        idx = _trial(n, size, np.random.default_rng(0))
        assert idx.min() >= 0 and idx.max() < n


class TestRoutingRuleGenerator:
    def test_bootstraps_every_configuration(self, generator):
        assert len(generator.results) == len(generator.configurations)

    def test_estimate_lookup(self, generator):
        config = generator.configurations[3]
        assert generator.estimate_for(config.config_id).config_id == config.config_id
        with pytest.raises(KeyError):
            generator.estimate_for("cfg_does_not_exist")

    def test_empty_space_rejected(self, small_space):
        measurements, _ = small_space
        with pytest.raises(ValueError):
            RoutingRuleGenerator(measurements, [])

    def test_duplicate_ids_refused(self):
        """Two configurations sharing an id used to share one set of
        outcome columns: on this table the squeezenet configuration was
        estimated at the accurate version's 0.0 degradation instead of its
        own 2.0, which a tier could then certify."""
        measurements = measure_ic_service(1000, device="cpu", seed=1)
        squeezenet = EnsembleConfiguration(
            "dup", SingleVersionPolicy("ic_cpu_squeezenet")
        )
        accurate = EnsembleConfiguration(
            "dup", SingleVersionPolicy(measurements.most_accurate_version())
        )
        alone = RoutingRuleGenerator(measurements, [squeezenet])
        assert alone.estimate_for("dup").error_degradation == 2.0
        with pytest.raises(ValueError, match="duplicate configuration id 'dup'"):
            RoutingRuleGenerator(measurements, [squeezenet, accurate])
        with pytest.raises(ValueError, match="duplicate configuration id 'dup'"):
            OutcomeMatrix.build(measurements, [squeezenet, accurate])

    def test_generate_respects_tolerances(self, generator):
        table = generator.generate([0.0, 0.02, 0.05, 0.10], Objective.RESPONSE_TIME)
        for tolerance, configuration in table.rules.items():
            estimate = generator.estimate_for(configuration.config_id)
            assert estimate.error_degradation <= tolerance + 1e-12

    def test_larger_tolerance_never_slower(self, generator):
        table = generator.generate(
            default_tolerance_grid(maximum=0.1, step=0.01), "response-time"
        )
        worst_times = [
            generator.estimate_for(table.rules[t].config_id).mean_response_time_s
            for t in sorted(table.rules)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(worst_times, worst_times[1:]))

    def test_zero_tolerance_uses_baseline_accuracy(self, generator, small_space):
        measurements, _ = small_space
        table = generator.generate([0.0], "response-time")
        configuration = table.config_for(0.0)
        metrics = evaluate_policy(measurements, configuration.policy)
        assert metrics.error_degradation == pytest.approx(0.0, abs=1e-9)

    def test_cost_objective_selects_cheaper_configs(self, generator, small_space):
        measurements, _ = small_space
        pricing = build_pricing(measurements)
        time_table = generator.generate([0.10], "response-time")
        cost_table = generator.generate([0.10], "cost")
        time_cfg = time_table.config_for(0.10)
        cost_cfg = cost_table.config_for(0.10)
        cost_of = lambda cfg: evaluate_policy(  # noqa: E731
            measurements, cfg.policy, pricing=pricing
        ).mean_invocation_cost
        assert cost_of(cost_cfg) <= cost_of(time_cfg) + 1e-12

    def test_rejects_negative_tolerance(self, generator):
        with pytest.raises(ValueError):
            generator.generate([-0.01], "cost")


class TestRoutingRuleTable:
    def test_config_for_picks_largest_covered_tier(self, generator):
        table = generator.generate([0.01, 0.05], "response-time")
        assert table.config_for(0.03) is table.rules[0.01]
        assert table.config_for(0.07) is table.rules[0.05]

    def test_tighter_than_all_rules_falls_back_to_baseline(self, generator):
        table = generator.generate([0.05], "response-time")
        assert table.config_for(0.0) is table.baseline

    def test_estimate_for(self, generator):
        table = generator.generate([0.05], "response-time")
        assert table.estimate_for(0.06) is not None
        assert table.estimate_for(0.0) is None

    def test_rejects_negative(self, generator):
        table = generator.generate([0.05], "response-time")
        with pytest.raises(ValueError):
            table.config_for(-1.0)


class TestTierRouter:
    def test_routes_by_objective(self, generator):
        router = TierRouter(
            {
                Objective.RESPONSE_TIME: generator.generate([0.05], "response-time"),
                Objective.COST: generator.generate([0.05], "cost"),
            }
        )
        assert set(router.objectives) == {Objective.RESPONSE_TIME, Objective.COST}
        cfg = router.route(0.05, "response-time")
        assert cfg is router.table_for(Objective.RESPONSE_TIME).rules[0.05]

    def test_missing_objective(self, generator):
        router = TierRouter(
            {Objective.RESPONSE_TIME: generator.generate([0.05], "response-time")}
        )
        with pytest.raises(KeyError):
            router.route(0.05, Objective.COST)

    def test_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            TierRouter({})

    def test_rejects_mismatched_table(self, generator):
        table = generator.generate([0.05], "cost")
        with pytest.raises(ValueError):
            TierRouter({Objective.RESPONSE_TIME: table})
