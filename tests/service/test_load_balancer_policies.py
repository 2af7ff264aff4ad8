"""Tests for node-selection policies and load-balancer pool mutation."""

import pytest

from repro.service.instances import get_instance_type
from repro.service.load_balancer import (
    JoinShortestQueuePolicy,
    LeastBusyPolicy,
    LoadBalancer,
    RoundRobinPolicy,
)
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


class TestRoundRobinPolicy:
    def test_cycles_evenly(self):
        policy = RoundRobinPolicy()
        pool = _nodes("v", 3)
        picks = [policy.select("v", pool) for _ in range(6)]
        assert picks == pool + pool

    def test_cursor_stays_bounded(self):
        policy = RoundRobinPolicy()
        pool = _nodes("v", 3)
        for _ in range(100):
            policy.select("v", pool)
        assert 0 <= policy._cursor["v"] < len(pool)

    def test_pool_shrink_restarts_rotation(self):
        policy = RoundRobinPolicy()
        pool = _nodes("v", 5)
        for _ in range(3):
            policy.select("v", pool)  # cursor now 3
        shrunk = pool[:2]
        picks = [policy.select("v", shrunk) for _ in range(4)]
        # The stale cursor (3) exceeds the new pool; rotation restarts at the
        # head instead of landing on an arbitrary survivor.
        assert picks == [shrunk[0], shrunk[1], shrunk[0], shrunk[1]]

    def test_pool_grow_visits_new_node(self):
        policy = RoundRobinPolicy()
        pool = _nodes("v", 2)
        for _ in range(2):
            policy.select("v", pool)
        grown = pool + _nodes("v", 1)
        picks = [policy.select("v", grown) for _ in range(3)]
        assert grown[2] in picks

    def test_reset_one_version_and_all(self):
        policy = RoundRobinPolicy()
        pool_a, pool_b = _nodes("a", 2), _nodes("b", 2)
        policy.select("a", pool_a)
        policy.select("b", pool_b)
        policy.reset("a")
        assert policy.select("a", pool_a) is pool_a[0]
        policy.reset()
        assert policy.select("b", pool_b) is pool_b[0]

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy().select("v", [])

    def test_independent_cursors_per_version(self):
        policy = RoundRobinPolicy()
        pool_a, pool_b = _nodes("a", 2), _nodes("b", 2)
        assert policy.select("a", pool_a) is pool_a[0]
        assert policy.select("b", pool_b) is pool_b[0]
        assert policy.select("a", pool_a) is pool_a[1]


class TestLeastBusyPolicy:
    def test_ties_break_to_first_node(self):
        policy = LeastBusyPolicy()
        pool = _nodes("v", 3)
        assert policy.select("v", pool) is pool[0]

    def test_prefers_idle_node(self):
        policy = LeastBusyPolicy()
        pool = _nodes("v", 2)
        pool[0].process("r1", None)
        assert policy.select("v", pool) is pool[1]

    def test_balances_over_time(self):
        pool = _nodes("v", 2)
        balancer = LoadBalancer({"v": pool}, selection_policy=LeastBusyPolicy())
        for i in range(4):
            balancer.dispatch("v", f"r{i}", None)
        assert [node.requests_served for node in pool] == [2, 2]

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            LeastBusyPolicy().select("v", [])


class TestJoinShortestQueuePolicy:
    def test_prefers_empty_queue(self):
        policy = JoinShortestQueuePolicy()
        pool = _nodes("v", 2)
        pool[0].submit("r1", None)
        assert policy.select("v", pool) is pool[1]

    def test_ties_break_on_busy_until(self):
        policy = JoinShortestQueuePolicy()
        pool = _nodes("v", 2)
        pool[0].busy_until = 5.0
        assert policy.select("v", pool) is pool[1]

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            JoinShortestQueuePolicy().select("v", [])


class TestPoolMutation:
    def _balancer(self):
        pool = _nodes("v", 2)
        return LoadBalancer({"v": pool}), pool

    def test_add_node_grows_pool_and_resets_rotation(self):
        balancer, pool = self._balancer()
        balancer.dispatch("v", "r1", None)  # cursor advanced to 1
        extra = _nodes("v", 1)[0]
        balancer.add_node("v", extra)
        assert balancer.pool_size("v") == 3
        # rotation restarted: next dispatch hits the head node again
        balancer.dispatch("v", "r2", None)
        assert pool[0].requests_served == 2

    def test_remove_node_prefers_idle(self):
        balancer, pool = self._balancer()
        pool[0].submit("r1", None)
        removed = balancer.remove_node("v", now=0.0)
        assert removed is pool[1]
        assert balancer.pool_size("v") == 1

    def test_remove_node_returns_none_when_all_busy(self):
        balancer, pool = self._balancer()
        for node in pool:
            node.submit("rq", None)
        assert balancer.remove_node("v", now=0.0) is None
        assert balancer.pool_size("v") == 2

    def test_forced_remove_requeues_pending_work(self):
        balancer, pool = self._balancer()
        # load both nodes so no idle candidate exists
        for node in pool:
            node.submit("stuck", "p")
        removed = balancer.remove_node("v", now=0.0, only_idle=False)
        assert removed is not None
        assert removed.queue_depth == 0  # its work moved, not dropped
        assert balancer.queue_depths() == {"v": 2}
        assert sum(len(node.drain()) for node in balancer.nodes_of("v")) == 2

    def test_forced_remove_requeues_in_fifo_order(self):
        pool = _nodes("v", 2)
        balancer = LoadBalancer({"v": pool})
        nodes = balancer.nodes_of("v")
        # survivor holds newer work; the evicted tail node holds older work
        nodes[0].submit("newer", "p", now=5.0)
        nodes[1].submit("old", "p", now=1.0)
        removed = balancer.remove_node("v", now=0.0, only_idle=False)
        assert removed is nodes[1]  # forced eviction takes the tail node
        survivor = balancer.nodes_of("v")[0]
        assert survivor is nodes[0]
        # the migrated older request merges AHEAD of the newer one
        assert survivor.oldest_enqueued_at == 1.0
        assert [q.request_id for q in survivor.pop_batch(2)] == ["old", "newer"]

    def test_remove_last_node_raises(self):
        pool = _nodes("v", 1)
        balancer = LoadBalancer({"v": pool})
        with pytest.raises(ValueError):
            balancer.remove_node("v")

    def test_queue_depths_reports_backlog(self):
        balancer, pool = self._balancer()
        balancer.submit("v", "r1", None)
        balancer.submit("v", "r2", None)
        assert balancer.queue_depths() == {"v": 2}

    def test_submit_then_drain_executes_everything(self):
        balancer, pool = self._balancer()
        balancer.submit("v", "r1", "x")
        balancer.submit("v", "r2", "y")
        completions = [c for node in balancer.nodes_of("v") for c in node.drain()]
        assert len(completions) == 2
        assert balancer.queue_depths() == {"v": 0}
        outputs = {c.result.output for c in completions}
        assert outputs == {"v:x", "v:y"}
