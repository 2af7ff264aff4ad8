"""Load balancing across service-node pools.

The paper's deployment picture is a front-end load balancer (the role
filled by Zuul/Nginx in production stacks) that forwards each request to a
node running the right service version.  Tolerance Tiers extends that load
balancer with routing *policies* (which version(s) to use per tier); the
mechanics of picking a node inside a version's pool stay the same and live
here.

Beyond the synchronous :meth:`LoadBalancer.dispatch` replay call, the
balancer exposes what the discrete-event engine in
:mod:`repro.service.simulation` consumes — pool membership
(:meth:`LoadBalancer.nodes_of`, :meth:`LoadBalancer.add_node`) so an
autoscaler can grow pools while requests are in flight — and
:meth:`LoadBalancer.evict_node`, which removes a specific node (a crashed
one, or the idle node a scale-down picked) and hands its queued work back
to the caller.  Node selection skips nodes whose
:attr:`~repro.service.node.ServiceNode.alive` flag has dropped, so traffic
never routes onto a corpse.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.service.node import QueuedRequest, ServiceNode, VersionResult

__all__ = ["LoadBalancer"]


class LoadBalancer:
    """Dispatches requests to the node pools of the registered versions.

    Within a pool the rule is join-shortest-queue (see
    :meth:`select_node`): which node runs a job is not part of a tier's
    accuracy/latency trade-off, so there is one rule, not an option.

    Args:
        pools: Mapping from version name to its list of nodes.
    """

    def __init__(self, pools: Dict[str, List[ServiceNode]]) -> None:
        if not pools:
            raise ValueError("load balancer needs at least one version pool")
        for version, nodes in pools.items():
            if not nodes:
                raise ValueError(f"version {version!r} has an empty node pool")
        self._pools = {version: list(nodes) for version, nodes in pools.items()}

    @property
    def versions(self) -> Tuple[str, ...]:
        """Names of the versions the balancer can route to."""
        return tuple(self._pools.keys())

    def pool_size(self, version: str) -> int:
        """Number of nodes serving ``version``."""
        return len(self._require_pool(version))

    def nodes_of(self, version: str) -> Tuple[ServiceNode, ...]:
        """The nodes currently serving ``version`` (read-only view)."""
        return tuple(self._require_pool(version))

    def _require_pool(self, version: str) -> List[ServiceNode]:
        try:
            return self._pools[version]
        except KeyError:
            raise KeyError(
                f"unknown service version {version!r}; registered versions are "
                f"{sorted(self._pools)}"
            ) from None

    # ------------------------------------------------------------------
    # pool mutation (autoscaling)
    # ------------------------------------------------------------------
    def add_node(self, version: str, node: ServiceNode) -> None:
        """Grow a version's pool by one node."""
        self._require_pool(version).append(node)

    def evict_node(self, version: str, node: ServiceNode) -> List[QueuedRequest]:
        """Forcibly remove a *specific* node (the crash path).

        This ignores idleness, may leave the pool empty (a whole pool can
        die; routing to it then raises until capacity recovers), and does
        *not* redistribute the victim's queued work — the queued items are
        returned so the caller (the simulation engine) can requeue them
        with its own bookkeeping.

        Raises:
            ValueError: If ``node`` is not in ``version``'s pool.
        """
        pool = self._require_pool(version)
        try:
            pool.remove(node)
        except ValueError:
            raise ValueError(
                f"node {node.node_id} is not in version {version!r}'s pool"
            ) from None
        return node.pop_batch(node.queue_depth) if node.queue_depth else []

    # ------------------------------------------------------------------
    # queueing interface
    # ------------------------------------------------------------------
    def select_node(self, version: str) -> ServiceNode:
        """The live node of ``version``'s pool with the shortest queue.

        Join-shortest-queue: least ``queue_depth``, then least
        ``busy_until``; on an exact tie the first node in pool order wins.
        Dead nodes never receive traffic: crashed nodes normally leave the
        pool via :meth:`evict_node`, but the scan also filters on
        :attr:`~repro.service.node.ServiceNode.alive` as a second line of
        defence, so a stale pool reference cannot route onto a corpse.

        Raises:
            ValueError: If the pool has no live node.
        """
        live = [node for node in self._require_pool(version) if node.alive]
        if not live:
            raise ValueError(f"no nodes available for version {version!r}")
        return min(live, key=lambda node: (node.queue_depth, node.busy_until))

    def live_pool_size(self, version: str) -> int:
        """Number of live (routable) nodes serving ``version``."""
        return sum(1 for node in self._require_pool(version) if node.alive)

    def advertised_capacity_rps(
        self, service_time_s: Mapping[str, float]
    ) -> float:
        """Aggregate request rate the live pools can absorb, in req/s.

        A health-check-level capacity estimate: each live node of a
        version absorbs ``1 / service_time`` requests per second, summed
        across every version with a known positive service time.  The
        region router uses this to decide when a region is *saturated*
        enough to spill traffic to a peer — it is an advertised number
        (no queueing, no batching amortization), deliberately the same
        coarse view a production health endpoint would export.
        """
        total = 0.0
        for version in self.versions:
            seconds = service_time_s.get(version)
            if seconds is not None and seconds > 0.0:
                total += self.live_pool_size(version) / seconds
        return total

    def queue_depths(self) -> Dict[str, int]:
        """Total queued (not yet started) requests per version."""
        return {
            version: sum(node.queue_depth for node in nodes)
            for version, nodes in self._pools.items()
        }

    # ------------------------------------------------------------------
    # synchronous replay interface
    # ------------------------------------------------------------------
    def dispatch(
        self, version: str, request_id: str, payload: Any
    ) -> Tuple[VersionResult, float]:
        """Send one request to one version; returns ``(result, latency_s)``."""
        node = self.select_node(version)
        return node.process(request_id, payload)

    def total_busy_seconds(self) -> Dict[str, float]:
        """Busy node-seconds accumulated per version across its pool."""
        return {
            version: sum(node.busy_seconds for node in nodes)
            for version, nodes in self._pools.items()
        }
