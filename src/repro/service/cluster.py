"""Scale-out cluster deployments.

A deployment is a set of node pools — one pool per service version — plus
the pricing model that bills work done on them.  The conventional
"one size fits all" deployment is the special case of a single pool running
the provider's chosen version; a Tolerance Tiers deployment keeps pools for
several versions so the routing policies have somewhere to send requests.

Deployments serve synchronously through
:meth:`ClusterDeployment.raw_dispatch`, which the gateway's
``DirectBackend`` calls (the node queues and runs the request at once);
the discrete-event engine in :mod:`repro.service.simulation` runs its
load tests over the same nodes under a virtual clock.

Pools can also change at runtime — :meth:`ClusterDeployment.add_nodes`
grows one, :meth:`ClusterDeployment.kill_node` crashes a node out of
one — so the simulation's autoscaler and fault schedule have something
to actuate; every node that leaves a pool stays on the retired books.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.service.instances import InstanceType
from repro.service.load_balancer import LoadBalancer
from repro import checks
from repro.service.node import ServiceNode, ServiceVersion, VersionResult
from repro.service.pricing import CostBreakdown, PricingModel
from repro.service.request import ServiceRequest

__all__ = ["ClusterDeployment", "NodePool"]


@dataclass(frozen=True)
class NodePool:
    """Specification of one version's pool.

    Attributes:
        version: The service version hosted by the pool.
        instance_type: Machine type of every node in the pool.
        n_nodes: Number of identical nodes.
    """

    version: ServiceVersion
    instance_type: InstanceType
    n_nodes: int = 1

    def __post_init__(self) -> None:
        checks.integer("n_nodes", self.n_nodes, minimum=1)

    def build_node(self) -> ServiceNode:
        """Instantiate one node to the pool's specification."""
        return ServiceNode(self.version, self.instance_type)

    def build_nodes(self) -> List[ServiceNode]:
        """Instantiate the pool's nodes."""
        return [self.build_node() for _ in range(self.n_nodes)]


class ClusterDeployment:
    """A running deployment: node pools, a load balancer and pricing.

    Args:
        pools: Pool specification per service-version name.
        per_request_fee: Platform fee billed per invocation.
        markup: Consumer-billing markup over raw IaaS cost.

    Within a pool, jobs go to the node with the shortest queue
    (:meth:`~repro.service.load_balancer.LoadBalancer.select_node`).
    """

    def __init__(
        self,
        pools: Mapping[str, NodePool],
        *,
        per_request_fee: float = 0.0,
        markup: float = 3.0,
    ) -> None:
        if not pools:
            raise ValueError("a deployment needs at least one pool")
        self._pool_specs = dict(pools)
        # The load balancer is the single source of truth for pool
        # membership; the deployment never keeps its own node lists.
        self.load_balancer = LoadBalancer(
            {name: spec.build_nodes() for name, spec in self._pool_specs.items()}
        )
        # IaaS cost of nodes evicted by scale-down, so iaas_spend() keeps
        # counting money already spent on machines no longer in the pool.
        self._retired_iaas: Dict[str, float] = {
            name: 0.0 for name in self._pool_specs
        }
        # Busy node-seconds of retired (scaled-down or crashed) nodes, so
        # billed work can be reconciled against total machine time even
        # after the machines that did it left the pool.
        self._retired_busy: Dict[str, float] = {
            name: 0.0 for name in self._pool_specs
        }
        self.pricing = PricingModel(
            {name: spec.instance_type for name, spec in self._pool_specs.items()},
            per_request_fee=per_request_fee,
            markup=markup,
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @property
    def versions(self) -> Tuple[str, ...]:
        """Versions the deployment can serve."""
        return self.load_balancer.versions

    def queue_depths(self) -> Dict[str, int]:
        """Requests queued (not yet started) per version."""
        return self.load_balancer.queue_depths()

    # ------------------------------------------------------------------
    # pool scaling (autoscaler actuation)
    # ------------------------------------------------------------------
    def pool_sizes(self) -> Dict[str, int]:
        """Current node count per version."""
        return {
            version: self.load_balancer.pool_size(version)
            for version in self.load_balancer.versions
        }

    def add_nodes(self, version: str, n: int = 1) -> List[ServiceNode]:
        """Grow a version's pool by ``n`` freshly built nodes."""
        checks.integer("n", n, minimum=1)
        try:
            spec = self._pool_specs[version]
        except KeyError:
            raise KeyError(
                f"unknown service version {version!r}; registered versions "
                f"are {sorted(self._pool_specs)}"
            ) from None
        added = []
        for _ in range(n):
            node = spec.build_node()
            self.load_balancer.add_node(version, node)
            added.append(node)
        return added

    def kill_node(self, version: str, node: ServiceNode, *, now: float):
        """Crash a specific node: the fault-injection actuation path.

        The node is marked dead with its in-progress work truncated at
        ``now`` (see :meth:`~repro.service.node.ServiceNode.kill` — the
        caller aborts the running batch itself, since it owns the
        completion events), evicted from the pool, and its spend and busy
        time are moved to the retired books.

        Returns:
            The queued (not yet started) requests the dead node was
            holding; the caller must requeue them onto survivors.
        """
        items = self.load_balancer.evict_node(version, node)
        if node.alive:
            node.kill(now=now)
        self._retire(version, node)
        return items

    def _retire(self, version: str, node: ServiceNode) -> None:
        """Book a node that left ``version``'s pool: its spend and busy
        time stay counted."""
        self._retired_iaas[version] += node.accumulated_cost
        self._retired_busy[version] += node.busy_seconds

    def raw_dispatch(
        self, version: str, request: ServiceRequest
    ) -> Tuple[VersionResult, float]:
        """Low-level dispatch used by the Tolerance Tiers policy executor."""
        return self.load_balancer.dispatch(
            version, request.request_id, request.payload
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def cost_of(self, node_seconds_by_version: Mapping[str, float]) -> CostBreakdown:
        """Price an arbitrary bundle of node-seconds on this deployment."""
        return self.pricing.request_cost(node_seconds_by_version)

    def total_busy_seconds(self) -> Dict[str, float]:
        """Busy node-seconds per version, including retired nodes.

        This is the reconciliation-side of the books: every node-second a
        request was ever billed for must have been worked *somewhere*, and
        scale-down or a crash must not make that work disappear.
        """
        live = self.load_balancer.total_busy_seconds()
        return {
            name: self._retired_busy[name] + seconds
            for name, seconds in live.items()
        }

    def iaas_spend(self) -> Dict[str, float]:
        """Accumulated IaaS cost per version since deployment (or reset).

        Includes the spend of nodes that have since been removed by
        scale-down.
        """
        return {
            name: self._retired_iaas[name]
            + sum(
                node.accumulated_cost
                for node in self.load_balancer.nodes_of(name)
            )
            for name in self.load_balancer.versions
        }
