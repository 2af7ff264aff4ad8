"""Tests for within-pool node selection and load-balancer pool mutation."""

import typing

import pytest

from oracle.scalar_loop import balancer_remove_node, balancer_submit
from repro.service.instances import get_instance_type
from repro.service.load_balancer import LoadBalancer
from repro.service.node import CallableVersion, ServiceNode, VersionResult


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


def _nodes(name: str, n: int, compute_seconds: float = 1.0):
    inst = get_instance_type("cpu.medium")
    return [
        ServiceNode(_echo_version(name, compute_seconds), inst) for _ in range(n)
    ]


class TestJoinShortestQueuePolicy:
    """``LoadBalancer.select_node`` is the one within-pool rule."""

    def test_prefers_empty_queue(self):
        pool = _nodes("v", 2)
        pool[0].submit("r1", None)
        assert LoadBalancer({"v": pool}).select_node("v") is pool[1]

    def test_ties_break_on_busy_until(self):
        pool = _nodes("v", 2)
        pool[0].busy_until = 5.0
        assert LoadBalancer({"v": pool}).select_node("v") is pool[1]

    def test_empty_pool_raises(self):
        pool = _nodes("v", 1)
        balancer = LoadBalancer({"v": pool})
        balancer.evict_node("v", pool[0])
        with pytest.raises(ValueError, match="no nodes available"):
            balancer.select_node("v")

    def test_exact_tie_goes_to_the_first_node_in_pool_order(self):
        pool = _nodes("v", 4)
        for node in pool:
            node.busy_until = 2.0
        pool[0].submit("r1", None)
        balancer = LoadBalancer({"v": pool})
        assert balancer.select_node("v") is pool[1]
        pool[1].busy_until = 3.0
        assert balancer.select_node("v") is pool[2]

    def test_skips_dead_nodes_and_refuses_an_all_dead_pool(self):
        pool = _nodes("v", 3)
        balancer = LoadBalancer({"v": pool})
        pool[0].kill(now=0.0)
        pool[2].submit("r1", None)
        assert balancer.select_node("v") is pool[1]
        pool[1].kill(now=0.0)
        assert balancer.select_node("v") is pool[2]
        pool[2].kill(now=0.0)
        with pytest.raises(ValueError, match="no nodes available for version 'v'"):
            balancer.select_node("v")


class TestJoinShortestQueueDispatch:
    """What join-shortest-queue does over a run of ``dispatch`` calls:
    each call finishes its job synchronously, so the scan falls through
    to ``busy_until`` and the work spreads over the pool."""

    def test_cycles_evenly_over_equal_nodes(self):
        pool = _nodes("v", 3)
        balancer = LoadBalancer({"v": pool})
        picks = []
        for i in range(6):
            picks.append(balancer.select_node("v"))
            balancer.dispatch("v", f"r{i}", None)
        assert picks == pool + pool
        assert [node.requests_served for node in pool] == [2, 2, 2]

    def test_prefers_the_idle_node(self):
        pool = _nodes("v", 2)
        pool[0].process("r1", None)
        assert LoadBalancer({"v": pool}).select_node("v") is pool[1]

    def test_balances_unequal_jobs_over_time(self):
        # A slow head node takes one job while the fast one takes three.
        pool = [*_nodes("v", 1, compute_seconds=3.0), *_nodes("v", 1)]
        balancer = LoadBalancer({"v": pool})
        for i in range(4):
            balancer.dispatch("v", f"r{i}", None)
        assert [node.requests_served for node in pool] == [1, 3]

    def test_a_shrunk_pool_selects_only_survivors(self):
        pool = _nodes("v", 5)
        balancer = LoadBalancer({"v": pool})
        for i in range(3):
            balancer.dispatch("v", f"r{i}", None)
        for node in pool[:3]:
            balancer.evict_node("v", node)
        picks = []
        for i in range(4):
            picks.append(balancer.select_node("v"))
            balancer.dispatch("v", f"s{i}", None)
        assert picks == [pool[3], pool[4], pool[3], pool[4]]

    def test_a_grown_pool_sends_the_next_job_to_the_new_node(self):
        pool = _nodes("v", 2)
        balancer = LoadBalancer({"v": pool})
        for i in range(2):
            balancer.dispatch("v", f"r{i}", None)
        extra = _nodes("v", 1)[0]
        balancer.add_node("v", extra)
        assert balancer.select_node("v") is extra

    def test_pools_of_different_versions_are_independent(self):
        pool_a, pool_b = _nodes("a", 2), _nodes("b", 2)
        balancer = LoadBalancer({"a": pool_a, "b": pool_b})
        balancer.dispatch("a", "r1", None)
        assert balancer.select_node("b") is pool_b[0]
        assert balancer.select_node("a") is pool_a[1]


class TestPoolMutation:
    def _balancer(self):
        pool = _nodes("v", 2)
        return LoadBalancer({"v": pool}), pool

    def test_add_node_grows_pool_and_resets_rotation(self):
        # Growth only: join-shortest-queue keeps no rotation state.
        balancer, pool = self._balancer()
        extra = _nodes("v", 1)[0]
        balancer.add_node("v", extra)
        assert balancer.pool_size("v") == 3
        assert balancer.nodes_of("v") == (*pool, extra)

    def test_remove_node_prefers_idle(self):
        balancer, pool = self._balancer()
        pool[0].submit("r1", None)
        removed = balancer_remove_node(balancer, "v", now=0.0)
        assert removed is pool[1]
        assert balancer.pool_size("v") == 1

    def test_remove_node_returns_none_when_all_busy(self):
        balancer, pool = self._balancer()
        for node in pool:
            node.submit("rq", None)
        assert balancer_remove_node(balancer, "v", now=0.0) is None
        assert balancer.pool_size("v") == 2

    def test_remove_last_node_raises(self):
        pool = _nodes("v", 1)
        balancer = LoadBalancer({"v": pool})
        with pytest.raises(ValueError):
            balancer_remove_node(balancer, "v")

    def test_queue_depths_reports_backlog(self):
        balancer, pool = self._balancer()
        balancer_submit(balancer, "v", "r1", None)
        balancer_submit(balancer, "v", "r2", None)
        assert balancer.queue_depths() == {"v": 2}

    def test_submit_then_drain_executes_everything(self):
        balancer, pool = self._balancer()
        balancer_submit(balancer, "v", "r1", "x")
        balancer_submit(balancer, "v", "r2", "y")
        completions = [c for node in balancer.nodes_of("v") for c in node.drain()]
        assert len(completions) == 2
        assert balancer.queue_depths() == {"v": 0}
        outputs = {c.result.output for c in completions}
        assert outputs == {"v:x", "v:y"}


def test_every_public_method_annotation_resolves():
    # Each public method's hints name something its module imports:
    # evict_node returns the queued work, List[QueuedRequest].
    methods = [
        getattr(member, "fget", member)
        for name, member in vars(LoadBalancer).items()
        if not name.startswith("_")
    ]
    assert len(methods) >= 10
    for method in methods:
        typing.get_type_hints(method)
    assert "QueuedRequest" in str(
        typing.get_type_hints(LoadBalancer.evict_node)["return"]
    )
