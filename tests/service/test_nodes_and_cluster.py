"""Tests for service nodes, load balancing and cluster deployments."""

import pytest

from oracle.scalar_loop import cluster_remove_node
from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.instances import get_instance_type
from repro.service.load_balancer import LoadBalancer
from repro.service.node import CallableVersion, ServiceNode, VersionResult
from repro.service.request import ServiceRequest


def _echo_version(name: str, compute_seconds: float = 1.0, confidence: float = 0.9):
    def handler(request_id, payload):
        return VersionResult(
            request_id=request_id,
            version=name,
            output=f"{name}:{payload}",
            error=0.0,
            confidence=confidence,
            compute_seconds=compute_seconds,
        )

    return CallableVersion(name, handler)


class TestVersionResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            VersionResult("r", "v", None, None, confidence=1.5, compute_seconds=0.1)
        with pytest.raises(ValueError):
            VersionResult("r", "v", None, None, confidence=0.5, compute_seconds=-1.0)


class TestCallableVersion:
    def test_rejects_mislabeled_result(self):
        def handler(request_id, payload):
            return VersionResult(request_id, "other", None, None, 0.5, 0.1)

        version = CallableVersion("mine", handler)
        with pytest.raises(ValueError):
            version.handle("r1", None)


class TestServiceNode:
    def test_processing_applies_speed_factor(self):
        node = ServiceNode(_echo_version("fast", compute_seconds=2.0),
                           get_instance_type("cpu.large"))
        result, latency = node.process("r1", "x")
        assert result.output == "fast:x"
        assert latency == pytest.approx(2.0 / get_instance_type("cpu.large").speed_factor)

    def test_accounting_accumulates(self):
        node = ServiceNode(_echo_version("v", 1.0), get_instance_type("cpu.medium"))
        node.process("r1", None)
        node.process("r2", None)
        assert node.requests_served == 2
        assert node.busy_seconds == pytest.approx(2.0)
        assert node.accumulated_cost > 0.0


class TestLoadBalancer:
    def _pools(self):
        inst = get_instance_type("cpu.medium")
        return {
            "fast": [ServiceNode(_echo_version("fast", 0.5), inst) for _ in range(2)],
            "slow": [ServiceNode(_echo_version("slow", 2.0), inst)],
        }

    def test_dispatch_spreads_over_idle_nodes(self):
        pools = self._pools()
        balancer = LoadBalancer(pools)
        balancer.dispatch("fast", "r1", None)
        balancer.dispatch("fast", "r2", None)
        served = [node.requests_served for node in pools["fast"]]
        assert served == [1, 1]

    def test_dispatch_balances_each_pool_on_its_own(self):
        pools = self._pools()
        balancer = LoadBalancer(pools)
        for i in range(4):
            balancer.dispatch("fast", f"r{i}", None)
            balancer.dispatch("slow", f"s{i}", None)
        served = [node.requests_served for node in pools["fast"]]
        assert served == [2, 2]
        assert pools["slow"][0].requests_served == 4

    def test_unknown_version(self):
        balancer = LoadBalancer(self._pools())
        with pytest.raises(KeyError):
            balancer.dispatch("huge", "r1", None)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            LoadBalancer({"v": []})

    def test_total_busy_seconds(self):
        balancer = LoadBalancer(self._pools())
        balancer.dispatch("slow", "r1", None)
        assert balancer.total_busy_seconds()["slow"] > 0.0


class TestClusterDeployment:
    def _deployment(self):
        inst = get_instance_type("cpu.medium")
        return ClusterDeployment(
            {
                "fast": NodePool(_echo_version("fast", 0.5), inst, n_nodes=2),
                "slow": NodePool(_echo_version("slow", 2.0), inst),
            },
            per_request_fee=0.001,
        )

    def test_versions_listed(self):
        assert set(self._deployment().versions) == {"fast", "slow"}

    def test_iaas_spend_accumulates(self):
        deployment = self._deployment()
        deployment.raw_dispatch("slow", ServiceRequest(request_id="r1", payload=None))
        assert deployment.iaas_spend()["slow"] > 0.0
        assert deployment.iaas_spend()["fast"] == 0.0

    def test_iaas_spend_retains_removed_node_cost(self):
        deployment = self._deployment()
        deployment.add_nodes("fast", 1)
        for i in range(4):
            deployment.raw_dispatch(
                "fast", ServiceRequest(request_id=f"r{i}", payload=None)
            )
        before = deployment.iaas_spend()["fast"]
        assert before > 0.0
        # no clock given: replay-path eviction only needs empty queues
        removed = cluster_remove_node(deployment, "fast")
        assert removed is not None
        # eviction does not refund money already spent
        assert deployment.iaas_spend()["fast"] == pytest.approx(before)

    def test_rejects_empty_pools(self):
        with pytest.raises(ValueError):
            ClusterDeployment({})

    def test_node_pool_validation(self):
        with pytest.raises(ValueError):
            NodePool(_echo_version("v"), get_instance_type("cpu.medium"), n_nodes=0)
