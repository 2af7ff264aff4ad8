"""Multi-region sharded serving over the engine/gateway/control stack.

The subsystem shards a load test across regions — each with its own
pools, arrival stream, faults and (optionally) closed-loop control —
and runs every region as an independent
:class:`~repro.service.simulation.engine.ServingSimulator` shard under
a spawned RNG stream, optionally on worker processes.  Cross-region
behaviour (locality-first routing, failover when a region is dead,
saturated or partitioned) is planned deterministically up front and
travels as a ``(time, region, seq)``-ordered boundary-event stream, so
the merged :class:`MultiRegionReport` digest is bit-stable across
serial and parallel execution.

* :mod:`repro.service.regions.spec` — :class:`RegionSpec` /
  :class:`MultiRegionSpec` and the spawned-seed discipline.
* :mod:`repro.service.regions.router` — :class:`RegionRouter`, the
  locality-first failover plan and :class:`BoundaryEvent` stream.
* :mod:`repro.service.regions.shard` — one shard's execution and
  per-region analysis (report digest, user-perceived latency, region
  SLO replay), the unit of parallel fan-out.
* :mod:`repro.service.regions.runner` — :func:`run_multi_region`
  (plan -> shard -> merge) and the RNG spawn-key audit.
* :mod:`repro.service.regions.report` — :class:`MultiRegionReport`,
  conservation invariants and the multi-region digest.
* :mod:`repro.service.regions.scenarios` — canonical golden-pinned
  multi-region scenarios.
"""

from repro.service.regions.report import MultiRegionReport, merge_shards
from repro.service.regions.router import (
    BoundaryEvent,
    PlannedRows,
    PlannedSubmission,
    RegionRouter,
    RouterPlan,
    ShardPlan,
)
from repro.service.regions.runner import (
    build_shard_tasks,
    multi_region_streams,
    run_multi_region,
)
from repro.service.regions.scenarios import region_scenarios
from repro.service.regions.shard import ShardResult, ShardTask, run_shard
from repro.service.regions.spec import (
    MultiRegionSpec,
    RegionSpec,
    derive_capacity_rps,
)

__all__ = [
    "BoundaryEvent",
    "MultiRegionReport",
    "MultiRegionSpec",
    "PlannedRows",
    "PlannedSubmission",
    "RegionRouter",
    "RegionSpec",
    "RouterPlan",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "build_shard_tasks",
    "derive_capacity_rps",
    "merge_shards",
    "multi_region_streams",
    "region_scenarios",
    "run_multi_region",
    "run_shard",
]
