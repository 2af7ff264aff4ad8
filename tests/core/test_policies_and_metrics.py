"""Tests for ensembling policies, outcomes and tier metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import build_pricing, error_degradation, evaluate_policy
from repro.core.outcomes import EnsembleOutcomes, LazyRequestIds
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.service.measurement import MeasurementSet


def _two_version_set(n: int = 40, seed: int = 0) -> MeasurementSet:
    rng = np.random.default_rng(seed)
    confidence = rng.uniform(0.0, 1.0, size=n)
    fast_error = (confidence < 0.45).astype(float)  # unconfident => wrong
    slow_error = np.zeros(n)
    fast_latency = np.full(n, 0.1)
    slow_latency = np.full(n, 0.5)
    return MeasurementSet(
        service="toy",
        request_ids=tuple(f"r{i}" for i in range(n)),
        versions=("fast", "slow"),
        error=np.column_stack([fast_error, slow_error]),
        latency_s=np.column_stack([fast_latency, slow_latency]),
        confidence=np.column_stack([confidence, np.full(n, 0.95)]),
        version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
    )


class TestSingleVersionPolicy:
    def test_replays_measurements(self):
        ms = _two_version_set()
        outcomes = SingleVersionPolicy("slow").evaluate(ms)
        assert outcomes.mean_error() == 0.0
        assert outcomes.mean_response_time() == pytest.approx(0.5)
        assert outcomes.escalation_rate() == 0.0
        assert list(outcomes.node_seconds) == ["slow"]
        assert outcomes.node_seconds["slow"].sum() == pytest.approx(0.5 * 40)

    def test_subset_indices(self):
        ms = _two_version_set()
        outcomes = SingleVersionPolicy("fast").evaluate(ms, indices=[0, 1, 2])
        assert outcomes.n_requests == 3

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError):
            SingleVersionPolicy("fast").evaluate(_two_version_set(), indices=[])


class TestTwoVersionPolicies:
    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialPolicy("fast", "fast", 0.5)
        with pytest.raises(ValueError):
            SequentialPolicy("fast", "slow", 1.5)

    def test_threshold_zero_never_escalates(self):
        ms = _two_version_set()
        outcomes = SequentialPolicy("fast", "slow", 0.0).evaluate(ms)
        assert outcomes.escalation_rate() == 0.0
        assert np.allclose(outcomes.response_time_s, 0.1)

    def test_threshold_one_always_escalates(self):
        ms = _two_version_set()
        outcomes = SequentialPolicy("fast", "slow", 1.0).evaluate(ms)
        assert outcomes.escalation_rate() == 1.0
        assert outcomes.mean_error() == 0.0
        assert np.allclose(outcomes.response_time_s, 0.6)

    def test_sequential_latency_adds_on_escalation(self):
        ms = _two_version_set()
        outcomes = SequentialPolicy("fast", "slow", 0.5).evaluate(ms)
        escalated = outcomes.escalated
        assert np.allclose(outcomes.response_time_s[escalated], 0.6)
        assert np.allclose(outcomes.response_time_s[~escalated], 0.1)

    def test_concurrent_latency_is_max_on_escalation(self):
        ms = _two_version_set()
        outcomes = ConcurrentPolicy("fast", "slow", 0.5).evaluate(ms)
        escalated = outcomes.escalated
        assert np.allclose(outcomes.response_time_s[escalated], 0.5)
        assert np.allclose(outcomes.response_time_s[~escalated], 0.1)

    def test_concurrent_always_spends_accurate_compute(self):
        ms = _two_version_set()
        outcomes = ConcurrentPolicy("fast", "slow", 0.5).evaluate(ms)
        assert outcomes.node_seconds["slow"].sum() == pytest.approx(0.5 * 40)

    def test_early_termination_bounds_wasted_compute(self):
        ms = _two_version_set()
        conc = ConcurrentPolicy("fast", "slow", 0.5).evaluate(ms)
        et = EarlyTerminationPolicy("fast", "slow", 0.5).evaluate(ms)
        assert et.node_seconds["slow"].sum() < conc.node_seconds["slow"].sum()
        # response times are identical between conc and et
        assert np.allclose(et.response_time_s, conc.response_time_s)

    def test_policy_error_between_fast_and_slow(self):
        ms = _two_version_set()
        for policy_cls in (SequentialPolicy, ConcurrentPolicy, EarlyTerminationPolicy):
            outcomes = policy_cls("fast", "slow", 0.5).evaluate(ms)
            assert 0.0 <= outcomes.mean_error() <= ms.mean_error("fast")

    def test_names_unique(self):
        a = SequentialPolicy("fast", "slow", 0.5)
        b = SequentialPolicy("fast", "slow", 0.7)
        c = ConcurrentPolicy("fast", "slow", 0.5)
        assert len({a.name, b.name, c.name}) == 3

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_escalation_rate_monotone_in_threshold(self, threshold):
        ms = _two_version_set()
        low = SequentialPolicy("fast", "slow", 0.0).evaluate(ms).escalation_rate()
        mid = SequentialPolicy("fast", "slow", threshold).evaluate(ms).escalation_rate()
        high = SequentialPolicy("fast", "slow", 1.0).evaluate(ms).escalation_rate()
        assert low <= mid <= high


class TestOutcomesValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            EnsembleOutcomes(
                policy_name="p",
                request_ids=("r0", "r1"),
                error=np.zeros(3),
                response_time_s=np.zeros(2),
                node_seconds={},
            )

    def test_node_seconds_shape_check(self):
        with pytest.raises(ValueError):
            EnsembleOutcomes(
                policy_name="p",
                request_ids=("r0", "r1"),
                error=np.zeros(2),
                response_time_s=np.zeros(2),
                node_seconds={"v": np.zeros(3)},
            )


class TestErrorDegradation:
    def test_relative(self):
        assert error_degradation(0.11, 0.10) == pytest.approx(0.1)

    def test_absolute(self):
        assert error_degradation(0.11, 0.10, mode="absolute") == pytest.approx(0.01)

    def test_improvement_is_zero(self):
        assert error_degradation(0.05, 0.10) == 0.0

    def test_zero_baseline_falls_back_to_absolute(self):
        assert error_degradation(0.02, 0.0) == pytest.approx(0.02)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            error_degradation(0.1, 0.1, mode="squared")


class TestEvaluatePolicy:
    def test_osfa_baseline_has_zero_reductions(self):
        ms = _two_version_set()
        metrics = evaluate_policy(ms, SingleVersionPolicy("slow"))
        assert metrics.response_time_reduction == pytest.approx(0.0)
        assert metrics.cost_reduction == pytest.approx(0.0)
        assert metrics.error_degradation == 0.0

    def test_fast_single_version_saves_time_but_degrades(self):
        ms = _two_version_set()
        metrics = evaluate_policy(ms, SingleVersionPolicy("fast"))
        assert metrics.response_time_reduction == pytest.approx(0.8)
        assert metrics.error_degradation > 0.0

    def test_sequential_policy_reduces_time_without_degradation(self):
        ms = _two_version_set()
        metrics = evaluate_policy(ms, SequentialPolicy("fast", "slow", 0.5))
        assert metrics.error_degradation == 0.0
        assert metrics.response_time_reduction > 0.0
        assert metrics.escalation_rate < 1.0

    def test_pricing_reflects_instance_prices(self):
        ms = _two_version_set()
        pricing = build_pricing(ms, per_request_fee=0.0)
        metrics = evaluate_policy(ms, SingleVersionPolicy("slow"), pricing=pricing)
        expected = 0.5 * ms.instance_for("slow").price_per_second * pricing.markup
        assert metrics.mean_invocation_cost == pytest.approx(expected)


class TestLazyRequestIds:
    """Policy outcomes resolve request ids lazily but behave like tuples."""

    def test_policy_outcomes_expose_sequence_semantics(self):
        ms = _two_version_set()
        outcomes = SequentialPolicy("fast", "slow", 0.5).evaluate(ms, [2, 0, 1])
        ids = outcomes.request_ids
        assert isinstance(ids, LazyRequestIds)
        assert len(ids) == 3
        assert ids[0] == ms.request_ids[2]
        assert ids[-1] == ms.request_ids[1]
        assert tuple(ids) == (
            ms.request_ids[2],
            ms.request_ids[0],
            ms.request_ids[1],
        )
        assert ids == tuple(ids)  # comparable against plain tuples
        assert ids[:2] == tuple(ids)[:2]

    def test_materialisation_is_cached(self):
        ms = _two_version_set()
        ids = SingleVersionPolicy("fast").evaluate(ms).request_ids
        assert ids.materialize() is ids.materialize()

    def test_full_evaluation_covers_all_requests(self):
        ms = _two_version_set()
        outcomes = SingleVersionPolicy("fast").evaluate(ms)
        assert tuple(outcomes.request_ids) == ms.request_ids
