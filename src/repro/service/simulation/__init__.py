"""Event-driven serving simulation: latency and cost under offered load.

The rule generator's contention-free scoring
(:mod:`repro.core.outcome_matrix`) answers "what would this configuration
have served per request"; this package answers the paper's
*service* question — what do the Tolerance Tiers policies do to tail
latency and cost when requests queue, batch and contend for a finite pool
of nodes, and what happens when that pool degrades:

* :mod:`repro.service.simulation.arrivals` -- Poisson, bursty, diurnal,
  spike and trace-driven arrival processes.
* :mod:`repro.service.simulation.batching` -- node-level request batching
  with a sublinear batch latency model.
* :mod:`repro.service.simulation.autoscaler` -- queue-depth and
  utilization triggered pool autoscaling (plus dead-pool replacement).
* :mod:`repro.service.simulation.faults` -- declarative fault injection:
  node crash/recovery, stragglers, transient-failure windows, the chaos
  vocabulary (gray failures, cascades, retry storms, cold-start waves,
  thundering herds), and the retry policy — with budgets — that
  re-drives failed attempts.
* :mod:`repro.service.simulation.scenarios` -- :class:`ScenarioSpec`, the
  declarative composition of arrivals + tier mix + autoscaling + faults,
  with six canonical degraded-mode scenarios and five chaos scenarios.
* :mod:`repro.service.simulation.invariants` -- opt-in conservation-law
  checking (request/attempt conservation, billing reconciliation).
* :mod:`repro.service.simulation.replay` -- measurement-backed service
  versions, so simulated service times come from measured latencies.
* :mod:`repro.service.simulation.engine` -- :class:`ServingSimulator`,
  the discrete-event engine tying it together over a
  :class:`~repro.service.cluster.ClusterDeployment`.
* :mod:`repro.service.simulation.columnar` -- the event loop its
  ``drain()`` runs.
* :mod:`repro.service.simulation.report` -- per-request records and
  p50/p95/p99 aggregates, availability/goodput/retry counters, and the
  deterministic report digest the golden-trace tests pin.
* :mod:`repro.service.simulation.seeds` -- the RNG spawn-key registry
  and the seed-stream audit that proves every derived generator
  (engine, faults, storm buckets, admission, region shards) is
  disjoint.
"""

from repro.service.simulation.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    SpikeArrivals,
    TraceArrivals,
)
from repro.service.simulation.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    ScalingEvent,
)
from repro.service.simulation.batching import BatchingConfig
from repro.service.simulation.engine import ServingSimulator
from repro.service.simulation.faults import (
    CascadePolicy,
    ColdStartWave,
    FaultLogEntry,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
    RegionPartition,
    RetryPolicy,
    RetryStorm,
    ThunderingHerd,
    TransientFaults,
    affected_versions,
)
from repro.service.simulation.invariants import (
    InvariantChecker,
    InvariantViolation,
)
from repro.service.simulation.replay import (
    MeasurementReplayVersion,
    build_replay_cluster,
    replay_pools,
)
from repro.service.simulation.report import (
    LoadTestReport,
    RecordColumns,
    RequestRecord,
)
from repro.service.simulation.scenarios import (
    ScenarioSpec,
    canonical_scenarios,
    chaos_scenarios,
    osfa_configuration,
    run_scenario,
    scenario_measurements,
)
from repro.service.simulation.seeds import (
    SeedStreamCollision,
    audit_seed_streams,
    spawn_region_seed,
    streams_for_spec,
)

__all__ = [
    "ArrivalProcess",
    "Autoscaler",
    "AutoscalerConfig",
    "BatchingConfig",
    "BurstyArrivals",
    "CascadePolicy",
    "ColdStartWave",
    "DiurnalArrivals",
    "FaultLogEntry",
    "GrayFailure",
    "InvariantChecker",
    "InvariantViolation",
    "LoadTestReport",
    "MeasurementReplayVersion",
    "NodeCrash",
    "NodeSlowdown",
    "PoissonArrivals",
    "RecordColumns",
    "RegionPartition",
    "RequestRecord",
    "RetryPolicy",
    "RetryStorm",
    "ScalingEvent",
    "ScenarioSpec",
    "SeedStreamCollision",
    "ServingSimulator",
    "SpikeArrivals",
    "ThunderingHerd",
    "TraceArrivals",
    "TransientFaults",
    "affected_versions",
    "audit_seed_streams",
    "build_replay_cluster",
    "canonical_scenarios",
    "chaos_scenarios",
    "osfa_configuration",
    "replay_pools",
    "run_scenario",
    "scenario_measurements",
    "spawn_region_seed",
    "streams_for_spec",
]
