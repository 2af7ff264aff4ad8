"""Declarative degraded-mode scenarios for the serving simulator.

A :class:`ScenarioSpec` composes everything one load test needs — an
arrival process, a tier mix (node pools plus the ensemble configuration or
router serving them), batching, an autoscaler config, a retry policy and a
timed fault schedule — into one frozen, comparable value.
:func:`run_scenario` inflates a spec against a measurement table and runs
it; the determinism contract is that the same spec, the same measurements
and the same seed always produce a byte-identical
:class:`~repro.service.simulation.report.LoadTestReport` digest.  That
contract is what the golden-trace regression tests in
``tests/service/golden/`` pin down (see ``docs/SCENARIOS.md``).

:func:`canonical_scenarios` ships the six degraded modes every serving
stack should survive — healthy baseline, flash-crowd spike, diurnal wave,
node crash with recovery, straggler, and a flaky window with retries —
defined over :func:`scenario_measurements`, a deterministic two-version
toy measurement set small enough for tests and benchmarks to run in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.core.router import TierRouter
from repro.service.cluster import ClusterDeployment
from repro.service.control.plane import ControlPlane, ControlSpec
from repro.service.measurement import MeasurementSet
from repro.service.request import Objective
from repro.service.simulation.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    PoissonArrivals,
    SpikeArrivals,
)
from repro.service.simulation.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.simulation.batching import BatchingConfig
from repro.service.simulation.engine import ServingSimulator
from repro.service.simulation.faults import (
    CascadePolicy,
    ColdStartWave,
    FaultEvent,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
    RetryPolicy,
    RetryStorm,
    ThunderingHerd,
    TransientFaults,
)
from repro.service.simulation.replay import build_replay_cluster
from repro.service.simulation.report import LoadTestReport

__all__ = [
    "ScenarioSpec",
    "build_simulator",
    "canonical_scenarios",
    "chaos_scenarios",
    "osfa_configuration",
    "run_scenario",
    "scenario_measurements",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible load-test scenario.

    Attributes:
        name: Scenario identifier (used in reports and golden files).
        arrivals: Offered-load arrival process.
        n_requests: Number of requests to simulate.
        pools: Node count per service version — the tier mix's capacity.
        configuration: Fixed ensemble configuration serving every request
            (mutually exclusive with ``router``).
        router: Tier router serving requests by their annotations.
        tolerance: ``Tolerance`` annotation on every generated request.
        objective: ``Objective`` annotation on every generated request.
        batching: Node-level batching policy (unbatched when ``None``).
        autoscaler_config: When given, a fresh
            :class:`~repro.service.simulation.autoscaler.Autoscaler` with
            this config runs during the scenario.
        retry: How failed job attempts are re-driven.
        faults: Timed fault schedule; empty for a healthy scenario.
        control: When given, the scenario runs closed-loop: a fresh
            :class:`~repro.service.control.plane.ControlPlane` built
            from this spec watches the run's telemetry, sheds or
            degrades arrivals under SLO breach, and (when configured)
            adapts the tier policy online.  ``None`` keeps the run
            open-loop and bit-identical to the pre-control-plane engine.
        seed: Seed for the arrival/payload stream (and, derived from it,
            the transient-fault and admission draws).
    """

    name: str
    arrivals: ArrivalProcess
    n_requests: int
    pools: Mapping[str, int]
    configuration: Optional[EnsembleConfiguration] = None
    router: Optional[TierRouter] = None
    tolerance: float = 0.0
    objective: Objective = Objective.RESPONSE_TIME
    batching: Optional[BatchingConfig] = None
    autoscaler_config: Optional[AutoscalerConfig] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: Tuple[FaultEvent, ...] = ()
    control: Optional[ControlSpec] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if (self.configuration is None) == (self.router is None):
            raise ValueError(
                "supply exactly one of configuration / router"
            )
        if self.n_requests < 1:
            raise ValueError("n_requests must be at least 1")
        if not self.pools:
            raise ValueError("pools must name at least one version")
        for version, n_nodes in self.pools.items():
            if n_nodes < 1:
                raise ValueError(
                    f"pool {version!r} needs at least one node"
                )

    def engine_fields(self) -> Dict[str, object]:
        """The engine-facing half of the spec — everything but arrivals,
        capacity and routing — as :func:`build_simulator` keywords."""
        return {
            "batching": self.batching,
            "autoscaler_config": self.autoscaler_config,
            "faults": self.faults,
            "retry": self.retry,
            "control": self.control,
            "seed": self.seed,
        }


def build_simulator(
    cluster: ClusterDeployment,
    *,
    router: Optional[TierRouter] = None,
    configuration: Optional[EnsembleConfiguration] = None,
    batching: Optional[BatchingConfig] = None,
    autoscaler_config: Optional[AutoscalerConfig] = None,
    faults: Sequence[FaultEvent] = (),
    retry: Optional[RetryPolicy] = None,
    control=None,
    measurements: Optional[MeasurementSet] = None,
    seed: int = 0,
    check_invariants: bool = False,
    trace=None,
) -> ServingSimulator:
    """Inflate engine-facing scenario fields into a ready simulator.

    The one assembly line behind :func:`run_scenario`, a region shard
    and a gateway session: a fresh autoscaler from its config, a live
    control plane from a declarative
    :class:`~repro.service.control.plane.ControlSpec` (anchored on the
    routing decision, re-fitting on ``measurements``, restricted to the
    versions ``cluster`` deploys; a live plane passes through), and the
    :class:`~repro.service.simulation.engine.ServingSimulator` itself.
    ``trace`` may be a bare collector — the simulator wraps it.
    """
    if control is not None and not hasattr(control, "on_tick"):
        control = ControlPlane.from_spec(
            control,
            measurements=measurements,
            configuration=configuration,
            router=router,
            seed=seed,
            deployed_versions=cluster.versions,
        )
    return ServingSimulator(
        cluster,
        router=router,
        configuration=configuration,
        batching=batching,
        autoscaler=(
            Autoscaler(autoscaler_config)
            if autoscaler_config is not None
            else None
        ),
        faults=faults,
        retry=retry,
        check_invariants=check_invariants,
        control=control,
        trace=trace,
        seed=seed,
    )


def run_scenario(
    spec: ScenarioSpec,
    measurements: MeasurementSet,
    *,
    check_invariants: bool = False,
    trace=None,
) -> LoadTestReport:
    """Inflate a scenario against a measurement table and run it.

    Builds a fresh measurement-replay cluster sized to ``spec.pools`` and
    hands it to :func:`build_simulator` with the spec's own routing — so
    repeated calls are independent and bit-identical.

    Args:
        spec: The scenario to run.
        measurements: Measurement table whose versions the spec's pools
            and faults reference.
        check_invariants: Verify the engine's conservation laws at drain
            time (see :mod:`repro.service.simulation.invariants`).
        trace: Optional trace sink: a
            :class:`~repro.obs.trace.TraceCollector` (the simulator wraps
            it in a :class:`~repro.obs.record.SimTraceRecorder`)
            or an already-built recorder.  Strictly opt-in — the report
            and its digest are bit-identical with or without one.
    """
    simulator = build_simulator(
        build_replay_cluster(measurements, dict(spec.pools)),
        router=spec.router,
        configuration=spec.configuration,
        measurements=measurements,
        check_invariants=check_invariants,
        trace=trace,
        **spec.engine_fields(),
    )
    return simulator.run(
        spec.arrivals,
        spec.n_requests,
        tolerance=spec.tolerance,
        objective=spec.objective,
        payload_ids=measurements.request_ids,
    )


def scenario_measurements(
    *, n_requests: int = 50, seed: int = 7
) -> MeasurementSet:
    """A deterministic two-version toy measurement table.

    Mirrors the shape the paper's services share: a ``fast`` version
    (50 ms, noisy confidence, some error) and a ``slow`` accurate version
    (400 ms, confident, near-zero error), both on the baseline CPU
    instance.  Small enough that the canonical scenarios, the golden
    traces and the resilience benchmark all run in seconds.
    """
    rng = np.random.default_rng(seed)
    ids = tuple(f"r{i:03d}" for i in range(n_requests))
    fast_confidence = rng.uniform(0.2, 1.0, n_requests)
    return MeasurementSet(
        service="scenario-toy",
        request_ids=ids,
        versions=("fast", "slow"),
        error=np.column_stack(
            [
                rng.uniform(0.1, 0.3, n_requests),
                rng.uniform(0.0, 0.05, n_requests),
            ]
        ),
        latency_s=np.column_stack(
            [np.full(n_requests, 0.05), np.full(n_requests, 0.4)]
        ),
        confidence=np.column_stack(
            [fast_confidence, np.full(n_requests, 0.95)]
        ),
        version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
    )


def _tiered_configuration() -> EnsembleConfiguration:
    """The canonical tier mix: sequential fast-then-accurate at 0.6."""
    return EnsembleConfiguration(
        "scenario_seq", SequentialPolicy("fast", "slow", 0.6)
    )


def osfa_configuration() -> EnsembleConfiguration:
    """The conventional deployment: every request on the accurate version."""
    return EnsembleConfiguration(
        "scenario_osfa", SingleVersionPolicy("slow")
    )


def canonical_scenarios() -> Dict[str, ScenarioSpec]:
    """The six canonical degraded-mode scenarios, keyed by name.

    All are defined over :func:`scenario_measurements` and the
    ``seq(fast, slow, 0.6)`` tier mix; each isolates one failure mode:

    ``baseline``
        Healthy pools under steady Poisson load — the control run, and
        the scenario whose behaviour must stay bit-identical to a plain
        (pre-fault-subsystem) engine run.
    ``spike``
        A 6x flash crowd for 10 virtual seconds.
    ``diurnal``
        A slow day/night wave served by an autoscaled deployment.
    ``node-crash``
        One of two accurate nodes dies mid-batch and is replaced 10
        seconds later; its queued work migrates to the survivor and the
        aborted attempts retry.
    ``straggler``
        One fast node runs 5x slow for a window.
    ``flaky``
        A transient-fault window eats 30 % of fast completions; retries
        with backoff re-drive them.
    """
    tiered = _tiered_configuration
    retry = RetryPolicy(max_attempts=3, backoff_s=0.05)
    return {
        "baseline": ScenarioSpec(
            name="baseline",
            arrivals=PoissonArrivals(3.0),
            n_requests=120,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            seed=11,
        ),
        "spike": ScenarioSpec(
            name="spike",
            arrivals=SpikeArrivals(
                2.0,
                spike_start_s=10.0,
                spike_duration_s=10.0,
                spike_multiplier=6.0,
            ),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            seed=12,
        ),
        "diurnal": ScenarioSpec(
            name="diurnal",
            arrivals=DiurnalArrivals(3.0, amplitude=0.6, period_s=40.0),
            n_requests=150,
            pools={"fast": 1, "slow": 1},
            configuration=tiered(),
            autoscaler_config=AutoscalerConfig(
                min_nodes=1,
                max_nodes=4,
                scale_up_queue_depth=2.0,
                evaluation_interval_s=0.5,
                cooldown_s=1.0,
            ),
            seed=13,
        ),
        "node-crash": ScenarioSpec(
            name="node-crash",
            arrivals=PoissonArrivals(5.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            retry=retry,
            faults=(
                NodeCrash(
                    at_s=6.0, version="slow", node_index=0, recover_at_s=16.0
                ),
            ),
            seed=14,
        ),
        "straggler": ScenarioSpec(
            name="straggler",
            arrivals=PoissonArrivals(3.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            faults=(
                NodeSlowdown(
                    at_s=5.0,
                    version="fast",
                    node_index=0,
                    speed_factor=0.2,
                    until_s=20.0,
                ),
            ),
            seed=15,
        ),
        "flaky": ScenarioSpec(
            name="flaky",
            arrivals=PoissonArrivals(3.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            retry=retry,
            faults=(
                TransientFaults(
                    start_s=5.0,
                    end_s=20.0,
                    failure_probability=0.3,
                    versions=("fast",),
                ),
            ),
            seed=16,
        ),
    }


def chaos_scenarios() -> Dict[str, ScenarioSpec]:
    """The five chaos scenarios, keyed by name — one per new fault type.

    Defined over the same toy measurements and ``seq(fast, slow, 0.6)``
    tier mix as :func:`canonical_scenarios` (which they deliberately do
    not touch: the canonical six stay bit-identical to their goldens).
    Each scenario exercises one failure shape a serving stack must
    degrade through *gracefully*:

    ``gray-failure``
        One fast node turns slow-but-alive for 20 virtual seconds: 3.3x
        latency, confidences silently halved.  Nothing crashes; the
        damage shows up as tail inflation and extra escalations.
    ``cascade``
        An accurate node dies and its death stresses the survivor: for a
        window after the crash, completions on the pool fail with a
        load-conditional probability.
    ``retry-storm``
        A correlated-failure window on the fast tier plus an aggressive
        retry policy — contained by a per-request retry budget and a
        global in-flight-retry cap.
    ``cold-start``
        A flash crowd forces the autoscaler to spawn nodes that serve at
        half speed (and slightly deflated confidence) for a warmup
        window — capacity arrives exactly when it is least useful.
    ``thundering-herd``
        Arrivals inside a 6-second outage window are held and released
        as one synchronized surge.
    """
    tiered = _tiered_configuration
    return {
        "gray-failure": ScenarioSpec(
            name="gray-failure",
            arrivals=PoissonArrivals(3.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            faults=(
                GrayFailure(
                    at_s=5.0,
                    version="fast",
                    node_index=0,
                    speed_factor=0.3,
                    confidence_factor=0.5,
                    until_s=25.0,
                ),
            ),
            seed=21,
        ),
        "cascade": ScenarioSpec(
            name="cascade",
            arrivals=PoissonArrivals(5.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
            faults=(
                NodeCrash(
                    at_s=6.0, version="slow", node_index=0, recover_at_s=20.0
                ),
                CascadePolicy(
                    version="slow",
                    window_s=8.0,
                    base_probability=0.25,
                    load_factor=0.1,
                    max_probability=0.85,
                ),
            ),
            seed=22,
        ),
        "retry-storm": ScenarioSpec(
            name="retry-storm",
            arrivals=PoissonArrivals(4.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            retry=RetryPolicy(
                max_attempts=4,
                backoff_s=0.02,
                retry_budget=2,
                max_inflight_retries=12,
            ),
            faults=(
                RetryStorm(
                    start_s=5.0,
                    end_s=20.0,
                    failure_probability=0.85,
                    bucket_s=0.5,
                    bad_fraction=0.6,
                    versions=("fast",),
                ),
            ),
            seed=23,
        ),
        "cold-start": ScenarioSpec(
            name="cold-start",
            arrivals=SpikeArrivals(
                2.0,
                spike_start_s=8.0,
                spike_duration_s=10.0,
                spike_multiplier=6.0,
            ),
            n_requests=150,
            pools={"fast": 1, "slow": 1},
            configuration=tiered(),
            autoscaler_config=AutoscalerConfig(
                min_nodes=1,
                max_nodes=4,
                scale_up_queue_depth=2.0,
                evaluation_interval_s=0.5,
                cooldown_s=1.0,
            ),
            faults=(
                ColdStartWave(
                    warmup_s=6.0,
                    speed_factor=0.4,
                    confidence_factor=0.8,
                ),
            ),
            seed=24,
        ),
        "thundering-herd": ScenarioSpec(
            name="thundering-herd",
            arrivals=PoissonArrivals(4.0),
            n_requests=150,
            pools={"fast": 2, "slow": 2},
            configuration=tiered(),
            faults=(
                ThunderingHerd(start_s=8.0, end_s=14.0, spread_s=0.25),
            ),
            seed=25,
        ),
    }
