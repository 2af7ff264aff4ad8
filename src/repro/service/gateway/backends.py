"""Synchronous execution backends for the tier gateway.

An execution backend is where a routed request's ensemble actually runs
(see :class:`repro.core.executor.ExecutionBackend` for the protocol).  Two
synchronous substrates live here:

* :class:`DirectBackend` — the live path: each invocation dispatches
  through a :class:`~repro.service.cluster.ClusterDeployment`'s load
  balancer onto a real node, contention-free.
* :class:`ReplayBackend` — the measurement-replay path: each invocation
  reads the measured ``(request, version)`` cell of a
  :class:`~repro.service.measurement.MeasurementSet`.  Driving the
  :class:`~repro.core.executor.PolicyExecutor` over this backend is the
  per-request oracle the rule generator's vectorized policy evaluations
  are pinned against.

The deferred, virtual-clock backend lives in
:mod:`repro.service.gateway.simulated`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.errors import RequestValidationError
from repro.core.executor import Invocation
from repro.service.cluster import ClusterDeployment
from repro.service.measurement import MeasurementSet
from repro.service.pricing import CostBreakdown, PricingModel
from repro.service.request import ServiceRequest

__all__ = ["DirectBackend", "ReplayBackend"]


class DirectBackend:
    """Contention-free live dispatch onto a cluster deployment.

    Args:
        cluster: Deployment hosting a pool for every version the gateway's
            configurations may use.
    """

    synchronous = True

    def __init__(self, cluster: ClusterDeployment) -> None:
        self.cluster = cluster

    @property
    def versions(self) -> Tuple[str, ...]:
        """Versions the deployment can serve."""
        return self.cluster.versions

    def invoke(self, version: str, request: ServiceRequest) -> Invocation:
        """Dispatch one request onto one version's pool."""
        result, latency = self.cluster.raw_dispatch(version, request)
        return Invocation(
            output=result.output,
            confidence=result.confidence,
            latency_s=latency,
            error=result.error,
        )

    def cost_of(self, node_seconds: Mapping[str, float]) -> CostBreakdown:
        """Price node-seconds with the deployment's pricing model."""
        return self.cluster.cost_of(node_seconds)


class ReplayBackend:
    """Measurement replay: invocations read the measured outcome table.

    The request payload must name a measured request id (the convention
    every replay consumer in this repo shares); the backend reports
    exactly the error, latency and confidence measured for that
    ``(request, version)`` cell.

    Args:
        measurements: The measurement table to replay.
        pricing: Pricing model billing the replayed node-seconds; defaults
            to the measurement set's own instance catalogue via
            :func:`repro.core.metrics.build_pricing`.
    """

    synchronous = True

    def __init__(
        self,
        measurements: MeasurementSet,
        *,
        pricing: Optional[PricingModel] = None,
    ) -> None:
        if pricing is None:
            from repro.core.metrics import build_pricing

            pricing = build_pricing(measurements)
        self.measurements = measurements
        self.pricing = pricing
        self._rows: Dict[str, int] = {
            rid: i for i, rid in enumerate(measurements.request_ids)
        }

    @property
    def versions(self) -> Tuple[str, ...]:
        """Versions the measurement table covers."""
        return tuple(self.measurements.versions)

    def invoke(self, version: str, request: ServiceRequest) -> Invocation:
        """Replay the measured outcome for the payload's request id.

        Raises:
            RequestValidationError: If the payload names no measured
                request id.
        """
        try:
            row = self._rows[request.payload]
        except (KeyError, TypeError):
            raise RequestValidationError(
                f"payload {request.payload!r} on request "
                f"{request.request_id!r} does not name a measured request id"
            ) from None
        column = self.measurements.version_index(version)
        return Invocation(
            output=request.payload,
            confidence=float(self.measurements.confidence[row, column]),
            latency_s=float(self.measurements.latency_s[row, column]),
            error=float(self.measurements.error[row, column]),
        )

    def cost_of(self, node_seconds: Mapping[str, float]) -> CostBreakdown:
        """Price node-seconds with the measurement-derived pricing model."""
        return self.pricing.request_cost(node_seconds)
