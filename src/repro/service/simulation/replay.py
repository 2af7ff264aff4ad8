"""Measurement-backed service versions for load simulation.

The discrete-event engine needs per-request service times and confidences
for every version a request might touch.  Rather than re-running models
under the virtual clock, versions are *replayed* from a
:class:`~repro.service.measurement.MeasurementSet`: a request's payload
names a measured request id, and the version reports exactly the error,
latency and confidence that were measured for that ``(request, version)``
cell.  This is the same measurement table the rule generator scores its
trials on (:mod:`repro.core.outcome_matrix`), lifted into the live-serving
protocol so queueing, batching and autoscaling can happen around it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.measurement import MeasurementSet
from repro.service.node import VersionResult

__all__ = ["MeasurementReplayVersion", "build_replay_cluster", "replay_pools"]


class MeasurementReplayVersion:
    """A :class:`~repro.service.node.ServiceVersion` replaying measurements.

    The request payload must be a measured request id (the convention the
    seed's replay mode already uses); the handler looks up that row and
    reports the measured error/latency/confidence.  Measured latencies were
    recorded *on the version's measured instance type*, so they are scaled
    back to baseline compute-seconds here; a node then divides by its own
    instance's speed factor, and a pool deployed on the measured instance
    type reproduces the measured latency exactly.

    Args:
        measurements: The measurement table to replay.
        version: Which version column this service version serves.
    """

    def __init__(self, measurements: MeasurementSet, version: str) -> None:
        self.name = version
        self._column = measurements.version_index(version)
        # The id->row map depends only on the measurement set's row order,
        # so every version (and every rebuild of the same cluster) shares
        # one dict cached on the set — rebuilding it per version dominated
        # cluster construction for large tables.
        ids = measurements.request_ids
        cached = measurements.__dict__.get("_replay_rows")
        if cached is not None and cached[0] is ids:
            rows = cached[1]
        else:
            rows = {rid: i for i, rid in enumerate(ids)}
            measurements.__dict__["_replay_rows"] = (ids, rows)
        self._rows: Dict[str, int] = rows
        self._measurements = measurements
        self._baseline_scale = measurements.instance_for(version).speed_factor

    def handle(self, request_id: str, payload) -> VersionResult:
        """Replay the measured outcome for the payload's request id."""
        try:
            row = self._rows[payload]
        except (KeyError, TypeError):
            raise KeyError(
                f"payload {payload!r} does not name a measured request id"
            ) from None
        ms = self._measurements
        return VersionResult(
            request_id=request_id,
            version=self.name,
            output=payload,
            error=float(ms.error[row, self._column]),
            confidence=float(ms.confidence[row, self._column]),
            compute_seconds=float(ms.latency_s[row, self._column])
            * self._baseline_scale,
        )


def replay_pools(
    measurements: MeasurementSet,
    pool_sizes: Mapping[str, int],
) -> Dict[str, NodePool]:
    """Build replay node pools for a subset of a set's versions.

    Args:
        measurements: The measurement table to replay.
        pool_sizes: Node count per version to deploy; versions absent from
            the mapping get no pool.
    """
    if not pool_sizes:
        raise ValueError("pool_sizes must name at least one version")
    return {
        version: NodePool(
            version=MeasurementReplayVersion(measurements, version),
            instance_type=measurements.instance_for(version),
            n_nodes=n_nodes,
        )
        for version, n_nodes in pool_sizes.items()
    }


def build_replay_cluster(
    measurements: MeasurementSet,
    pool_sizes: Mapping[str, int],
    *,
    per_request_fee: float = 0.0,
    markup: float = 3.0,
) -> ClusterDeployment:
    """Deploy a measurement-replay cluster ready for load simulation.

    Args:
        measurements: The measurement table to replay.
        pool_sizes: Node count per version to deploy.
        per_request_fee: Platform fee billed per invocation.
        markup: Consumer-billing markup over raw IaaS cost.

    Jobs go to the node of their version's pool with the shortest queue
    (:meth:`~repro.service.load_balancer.LoadBalancer.select_node`).
    """
    return ClusterDeployment(
        replay_pools(measurements, pool_sizes),
        per_request_fee=per_request_fee,
        markup=markup,
    )
