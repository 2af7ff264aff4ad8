"""Pricing models: what the consumer pays and what the provider pays.

Two costs matter in the paper's evaluation:

* the **invocation cost** billed to the API consumer every time the service
  is invoked (the paper's cost-objective tiers minimise this), and
* the **IaaS cost** the provider pays for the node-seconds its service
  versions consume (this is where a concurrent ensemble that lets a slow
  version keep running "wastes" money even when its result is discarded).

:class:`PricingModel` converts node-seconds on a given instance type into
both quantities and keeps a per-version breakdown so policy comparisons can
show *where* the money goes (paper Fig. 6 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.service.instances import InstanceType

__all__ = ["CostBreakdown", "PricingModel"]


@dataclass
class CostBreakdown:
    """Aggregated cost of a set of requests, broken down by service version.

    Attributes:
        invocation_cost: Total amount billed to consumers.
        iaas_cost: Total node cost paid by the provider.
        per_version_iaas: Node cost attributed to each service version.
        n_requests: Number of requests the costs cover.
    """

    invocation_cost: float = 0.0
    iaas_cost: float = 0.0
    per_version_iaas: Dict[str, float] = field(default_factory=dict)
    n_requests: int = 0


class PricingModel:
    """Converts node-seconds into invocation and IaaS costs.

    Args:
        version_instances: Mapping from service-version name to the instance
            type its node pool runs on.
        per_request_fee: Fixed platform fee billed to the consumer per
            invocation (independent of compute).
        markup: Multiplier applied to the provider's compute cost when
            billing the consumer (providers charge more than raw IaaS).

    The invocation cost of serving one request with versions
    ``{v: seconds}`` is::

        per_request_fee + markup * sum(seconds_v * price_per_second(instance_v))

    and the IaaS cost is the same sum without fee or markup.
    """

    def __init__(
        self,
        version_instances: Mapping[str, InstanceType],
        *,
        per_request_fee: float = 0.0,
        markup: float = 3.0,
    ) -> None:
        # Written so NaN fails each bound (it compares false both ways).
        if not per_request_fee >= 0.0:
            raise ValueError("per_request_fee must be non-negative")
        if not markup > 0.0:
            raise ValueError("markup must be positive")
        if not version_instances:
            raise ValueError("version_instances must not be empty")
        self.version_instances: Dict[str, InstanceType] = dict(version_instances)
        self.per_request_fee = per_request_fee
        self.markup = markup

    def instance_for(self, version: str) -> InstanceType:
        """Instance type a version runs on.

        Raises:
            KeyError: If the version is not priced.
        """
        try:
            return self.version_instances[version]
        except KeyError:
            raise KeyError(
                f"no instance type registered for version {version!r}"
            ) from None

    def compute_cost(self, version: str, node_seconds: float) -> float:
        """Raw IaaS cost of ``node_seconds`` of one version's node time."""
        if node_seconds < 0.0:
            raise ValueError("node_seconds must be non-negative")
        return node_seconds * self.instance_for(version).price_per_second

    def request_cost(self, node_seconds_by_version: Mapping[str, float]) -> CostBreakdown:
        """Cost of one request given the node-seconds each version consumed.

        Args:
            node_seconds_by_version: Node-seconds actually spent per version
                while serving the request (including wasted concurrent work).
        """
        per_version = {
            version: self.compute_cost(version, seconds)
            for version, seconds in node_seconds_by_version.items()
        }
        iaas = sum(per_version.values())
        return CostBreakdown(
            invocation_cost=self.per_request_fee + self.markup * iaas,
            iaas_cost=iaas,
            per_version_iaas=per_version,
            n_requests=1,
        )
