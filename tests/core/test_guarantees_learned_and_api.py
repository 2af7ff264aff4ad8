"""Tests for the guarantee audit, learned-escalation baseline and live API."""

import numpy as np
import pytest

from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.guarantees import audit_guarantees
from repro.core.learned_router import LogisticEscalationPolicy
from repro.core.metrics import evaluate_policy
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.gateway import DirectBackend, TierGateway
from repro.service.instances import get_instance_type
from repro.service.node import CallableVersion, VersionResult
from repro.service.request import Objective, ServiceRequest


class TestGuaranteeAudit:
    @pytest.fixture(scope="class")
    def audit(self, request):
        ic_measurements = request.getfixturevalue("ic_measurements")
        configurations = enumerate_configurations(
            ic_measurements,
            thresholds=(0.4, 0.5, 0.6),
            fast_versions=["ic_cpu_squeezenet"],
        )
        return audit_guarantees(
            ic_measurements,
            tolerances=[0.01, 0.05, 0.10],
            objective="response-time",
            folds=3,
            confidence=0.95,
            seed=2,
            configurations=configurations,
            generator_kwargs={"min_trials": 6, "max_trials": 25},
        )

    def test_structure(self, audit):
        assert audit.folds == 3
        assert audit.objective is Objective.RESPONSE_TIME
        assert len(audit.rows) == 3
        assert [row.tolerance for row in audit.rows] == [0.01, 0.05, 0.10]

    def test_no_violations(self, audit):
        # The paper's key claim: guarantees hold on held-out traffic.
        assert audit.total_violations == 0
        for row in audit.rows:
            assert not row.violated
            assert row.worst_degradation <= row.tolerance + 1e-9

    def test_savings_grow_with_tolerance(self, audit):
        reductions = [row.mean_response_time_reduction for row in audit.rows]
        assert reductions[0] <= reductions[-1] + 1e-9

    def test_configurations_recorded(self, audit):
        for row in audit.rows:
            assert len(row.configurations_used) >= 1


class TestLogisticEscalationPolicy:
    def test_fit_and_evaluate(self, ic_measurements):
        policy = LogisticEscalationPolicy("ic_cpu_squeezenet", "ic_cpu_resnet50")
        policy.fit(ic_measurements, indices=range(1000))
        outcomes = policy.evaluate(ic_measurements, indices=range(1000, 2000))
        assert 0.0 < outcomes.escalation_rate() < 1.0
        metrics = evaluate_policy(ic_measurements, policy, indices=range(1000, 2000))
        assert metrics.mean_error <= ic_measurements.subset(
            range(1000, 2000)
        ).mean_error("ic_cpu_squeezenet")

    def test_predictor_monotone_in_confidence(self, ic_measurements):
        policy = LogisticEscalationPolicy("ic_cpu_squeezenet", "ic_cpu_resnet50")
        policy.fit(ic_measurements)
        low, high = policy.predict_error_probability(np.array([0.1, 0.9]))
        assert low > high  # low confidence => more likely wrong

    def test_requires_fit(self, ic_measurements):
        policy = LogisticEscalationPolicy("ic_cpu_squeezenet", "ic_cpu_resnet50")
        with pytest.raises(RuntimeError):
            policy.evaluate(ic_measurements)
        with pytest.raises(RuntimeError):
            policy.predict_error_probability(np.array([0.5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticEscalationPolicy("a", "a")
        with pytest.raises(ValueError):
            LogisticEscalationPolicy("a", "b", escalation_probability=1.2)


def _version(name, compute_seconds, confidence):
    def handler(request_id, payload):
        return VersionResult(
            request_id=request_id,
            version=name,
            output=f"{name}({payload})",
            error=None,
            confidence=confidence,
            compute_seconds=compute_seconds,
        )

    return CallableVersion(name, handler)


class TestToleranceTiersService:
    def _service(self, fast_confidence: float) -> TierGateway:
        instance = get_instance_type("cpu.medium")
        cluster = ClusterDeployment(
            {
                "fast": NodePool(_version("fast", 0.1, fast_confidence), instance),
                "slow": NodePool(_version("slow", 0.5, 0.95), instance),
            }
        )
        baseline = EnsembleConfiguration("cfg_base", SingleVersionPolicy("slow"))
        seq = EnsembleConfiguration("cfg_seq", SequentialPolicy("fast", "slow", 0.5))
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME,
            baseline=baseline,
            rules={0.05: seq},
        )
        return TierGateway(
            DirectBackend(cluster),
            router=TierRouter({Objective.RESPONSE_TIME: table}),
        )

    def test_zero_tolerance_served_by_baseline(self):
        service = self._service(fast_confidence=0.9)
        response = service.handle(
            ServiceRequest(request_id="r1", payload="x", tolerance=0.0)
        )
        assert response.versions_used == ("slow",)

    def test_confident_fast_result_served_directly(self):
        service = self._service(fast_confidence=0.9)
        response = service.handle(
            ServiceRequest(request_id="r2", payload="x", tolerance=0.05)
        )
        assert response.versions_used == ("fast",)
        assert response.response_time_s == pytest.approx(0.1)

    def test_unconfident_fast_result_escalates(self):
        service = self._service(fast_confidence=0.2)
        response = service.handle(
            ServiceRequest(request_id="r3", payload="x", tolerance=0.05)
        )
        assert response.versions_used == ("fast", "slow")
        assert response.result == "slow(x)"
        assert response.response_time_s == pytest.approx(0.6)

    def test_http_style_interface(self):
        service = self._service(fast_confidence=0.9)
        response = service.handle_http(
            "r4", "payload", {"Tolerance": "0.05", "Objective": "response-time"}
        )
        assert response.tier == pytest.approx(0.05)
        assert response.versions_used == ("fast",)

    def test_missing_version_rejected(self):
        instance = get_instance_type("cpu.medium")
        cluster = ClusterDeployment(
            {"slow": NodePool(_version("slow", 0.5, 0.9), instance)}
        )
        baseline = EnsembleConfiguration("cfg_base", SingleVersionPolicy("slow"))
        seq = EnsembleConfiguration("cfg_seq", SequentialPolicy("fast", "slow", 0.5))
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME, baseline=baseline, rules={0.05: seq}
        )
        with pytest.raises(ValueError):
            TierGateway(
                DirectBackend(cluster),
                router=TierRouter({Objective.RESPONSE_TIME: table}),
            )
