"""MLaaS cloud-service substrate.

Everything in this package is machine-learning-agnostic: it models the
cloud side of an MLaaS deployment the way the paper describes it —
scale-out pools of *service nodes*, each running one *service version* on
one *instance type*, fronted by a load balancer, and billed per invocation
and per node-hour.

* :mod:`repro.service.request` -- service requests/responses, including the
  ``Tolerance`` / ``Objective`` annotation headers of the paper's API.
* :mod:`repro.service.instances` -- the instance-type catalogue (CPU/GPU
  hourly prices), standing in for the IBM Bluemix / AWS price lists the
  paper cites.
* :mod:`repro.service.pricing` -- invocation-cost and IaaS-cost models.
* :mod:`repro.service.node` -- service nodes and the service-version
  protocol they host.
* :mod:`repro.service.load_balancer` -- request dispatch across node pools.
* :mod:`repro.service.cluster` -- scale-out deployments ("one size fits
  all" or multi-version).
* :mod:`repro.service.measurement` -- per-request, per-version measurement
  records: the substrate the Tolerance Tiers rule generator and the
  limitation analysis both operate on.
* :mod:`repro.service.simulation` -- the discrete-event serving simulator:
  offered-load arrival processes, per-node FIFO queues, request batching
  and pool autoscaling over the same deployments.
* :mod:`repro.service.gateway` -- the unified Tolerance Tiers serving
  gateway: one session-based client API (:class:`TierGateway`) over
  pluggable execution backends (live dispatch, measurement replay, or the
  discrete-event simulator).  Imported lazily — ``import
  repro.service.gateway`` — because it builds on both this package and
  :mod:`repro.core`.
* :mod:`repro.service.regions` -- multi-region sharded serving: per-region
  engine shards under spawned RNG streams, locality-first routing with
  cross-region failover, a deterministic boundary-event merge, and
  optional worker-process parallelism with bit-identical digests.
  Imported lazily — ``import repro.service.regions`` — it layers over
  simulation, control and the load balancer.
"""

from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.instances import (
    INSTANCE_CATALOG,
    InstanceType,
    get_instance_type,
)
from repro.service.load_balancer import LoadBalancer
from repro.service.measurement import (
    MeasurementSet,
    VersionMeasurement,
    measure_asr_service,
    measure_ic_service,
)
from repro.service.node import (
    NodeCompletion,
    QueuedRequest,
    ServiceNode,
    ServiceVersion,
    VersionResult,
)
from repro.service.pricing import CostBreakdown, PricingModel
from repro.service.request import Objective, ServiceRequest, ServiceResponse

__all__ = [
    "ClusterDeployment",
    "CostBreakdown",
    "INSTANCE_CATALOG",
    "InstanceType",
    "LoadBalancer",
    "MeasurementSet",
    "NodeCompletion",
    "NodePool",
    "Objective",
    "PricingModel",
    "QueuedRequest",
    "ServiceNode",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceVersion",
    "VersionMeasurement",
    "VersionResult",
    "get_instance_type",
    "measure_asr_service",
    "measure_ic_service",
]
