"""The five benchmark workloads, defined entirely in this directory.

Each workload is a fixed-size study a user of ``repro`` would run through
the public API, chosen so that a different set of layers carries the host
time (see README.md, "Workloads").  Everything here imports only from
``src/repro`` — never from the sibling ``benchmarks/bench_*.py``, which
later changes may edit — and values borrowed from those files (the
control-plane spec, the node-crash shape) are copied, not imported.

A workload object is built once per process (that is the set-up the
harness times), then asked for:

* ``pipeline(rec)`` — one repetition.  With ``rec=None`` it makes exactly
  the calls a user makes; with a :class:`~spans.SpanRecorder` it wraps
  each layer call in a span (and, where the public call hides the layer
  boundary, drives the same public pieces one by one).
* ``after_timing(outcome)`` / ``rep_checks(outcome)`` — correctness checks
  of that repetition, outside the timed region.
* ``once_checks(outcome)`` — checks that need an extra run (a twin), done
  once per process that is asked for them.
* ``layer_extras(...)`` — per-layer numbers that are not span self times:
  twins, standalone replays and exact counters.

``seed`` drives arrival streams, payload picks, the tier mix and spec
seeds.  Measurement-table seeds and the offline rule generator's seed are
fixed inputs: the provider fits rules once, traffic varies.
"""

from __future__ import annotations

import itertools
import pickle
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    EnsembleConfiguration,
    RoutingRuleGenerator,
    SequentialPolicy,
    TierRouter,
    enumerate_configurations,
    evaluate_policy,
)
from repro.obs import TraceCollector, aggregate_breakdown, tail_attribution
from repro.service import measure_ic_service
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlSpec,
    SLOMonitor,
    SLOSpec,
    TelemetryHub,
)
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.regions import (
    MultiRegionSpec,
    RegionRouter,
    RegionSpec,
    build_shard_tasks,
    merge_shards,
    multi_region_streams,
    run_multi_region,
    run_shard,
)
from repro.service.regions.report import ConservationError
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    BatchingConfig,
    InvariantViolation,
    NodeCrash,
    PoissonArrivals,
    RegionPartition,
    RetryPolicy,
    ScenarioSpec,
    audit_seed_streams,
    build_replay_cluster,
    scenario_measurements,
)

__all__ = ["WORKLOADS", "Outcome", "Workload"]

IC_TABLE_SEED = 2012
HELD_OUT_SEED = 2013
RULEGEN_SEED = 7
FAST = "ic_cpu_squeezenet"
BATCHING = BatchingConfig(max_batch_size=4, max_wait_s=0.01)


def _span(rec, name: str):
    return rec.span(name) if rec is not None else nullcontext()


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


@dataclass
class Outcome:
    """What one repetition produced, kept until its checks have run.

    ``digest`` identifies the repetition's behaviour (it must repeat
    exactly); the counts feed the conservation check; ``engines`` lists
    ``(engine_used, fallback_reason)`` per simulator run or shard.
    """

    digest: str
    n_submitted: int
    n_answered: int
    n_failed: int
    n_shed: int
    engines: List[Tuple[Optional[str], Optional[str]]]
    summary: Optional[Dict[str, float]] = None
    report: object = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def columnar_share(self) -> float:
        columnar = sum(1 for used, _ in self.engines if used == "columnar")
        return columnar / len(self.engines)

    @property
    def fallback_reasons(self) -> List[str]:
        return sorted({reason for _, reason in self.engines if reason})


def _load_test_outcome(report, digest: str, summary: Dict[str, float], n: int) -> Outcome:
    failed, shed = int(summary["n_failed"]), int(summary["n_shed"])
    return Outcome(
        digest=digest,
        n_submitted=n,
        n_answered=int(summary["n_requests"]) - failed - shed,
        n_failed=failed,
        n_shed=shed,
        engines=[(report.engine_used, report.fallback_reason)],
        summary=summary,
        report=report,
    )


class Workload:
    """Base class: the protocol above plus what every workload shares."""

    name = ""

    def __init__(self, seed: int, scale: float, rec, tmp_dir: Path) -> None:
        self.seed = seed

    def pipeline(self, rec=None) -> Outcome:
        raise NotImplementedError

    def after_timing(self, outcome: Outcome) -> None:
        """Fill in what the checks need but the user's pipeline never asks."""

    def rep_checks(self, outcome: Outcome) -> Dict[str, bool]:
        return {
            "submitted == answered + failed + shed": outcome.n_submitted
            == outcome.n_answered + outcome.n_failed + outcome.n_shed
        }

    def once_checks(self, outcome: Outcome) -> Dict[str, bool]:
        """Checks that cost an extra run; ``outcome`` is the last repetition."""
        return {}

    def sim_metrics(self, outcome: Outcome) -> Dict[str, float]:
        """The simulated service's own numbers (virtual clock, exact)."""
        summary = outcome.summary
        return {
            "sim_p95_latency_s": summary["p95_latency_s"],
            "sim_goodput_rps": summary["goodput_rps"],
            "sim_cost_per_req": summary["mean_invocation_cost"],
        }

    def layer_extras(self, rec, outcome: Outcome, layers: Dict[str, float]) -> Dict[str, float]:
        """Per-layer numbers beyond span self times (``layers``, by span name)."""
        return {}


def _simulation_counters(outcome: Outcome, engine_s: float) -> Dict[str, float]:
    """What every single-report workload says about the simulation layer."""
    return {
        "simulation.columnar_share": outcome.columnar_share,
        "simulation.engine_req_per_s": outcome.n_submitted / engine_s,
        "simulation.n_fault_events": outcome.summary["n_fault_events"],
        "simulation.retries_total": outcome.summary["total_retries"],
    }


def _arrivals_standalone_s(rate: float, n: int, seed: int, payload_ids) -> float:
    """Arrival generation on its own: Poisson times plus payload picks."""

    def generate():
        rng = np.random.default_rng(seed)
        times = PoissonArrivals(rate).times(n, rng).tolist()
        ids = list(payload_ids)
        picks = rng.integers(0, len(ids), size=n)
        return times, [ids[p] for p in picks.tolist()]

    return _timed(generate)[0]


# ----------------------------------------------------------------------
# steady_fixed / traced_export traffic
# ----------------------------------------------------------------------
class _IcFixedTraffic:
    """``bench_perf``'s serving traffic: fixed seq(squeezenet -> resnet50)."""

    def __init__(self, seed: int, rec) -> None:
        with rec.span("core.tables"):
            self.measurements = measure_ic_service(
                4000, device="cpu", seed=IC_TABLE_SEED
            )
        m = self.measurements
        accurate = m.most_accurate_version()
        threshold = 0.55
        self.pools = {FAST: 2, accurate: 2}
        self.configuration = EnsembleConfiguration(
            "e2e_seq", SequentialPolicy(FAST, accurate, threshold)
        )
        # 0.7x the binding pool's capacity: real queueing, no saturation.
        escalation = float((m.column(FAST, "confidence") < threshold).mean())
        self.rate = 0.7 * min(
            2.0 / m.mean_latency(FAST),
            2.0 / m.mean_latency(accurate) / max(escalation, 1e-9),
        )
        self.seed = seed

    def run_load(self, n: int, trace=None):
        cluster = build_replay_cluster(self.measurements, self.pools)
        gateway = TierGateway(
            SimulatedBackend(cluster, batching=BATCHING, seed=self.seed),
            configuration=self.configuration,
            trace=trace,
        )
        return gateway.run_load(
            PoissonArrivals(self.rate),
            n,
            payload_ids=self.measurements.request_ids,
        )


class SteadyFixed(Workload):
    name = "steady_fixed"

    def __init__(self, seed, scale, rec, tmp_dir) -> None:
        super().__init__(seed, scale, rec, tmp_dir)
        self.traffic = _IcFixedTraffic(seed, rec)
        self.n = _scaled(10_500, scale, 200)

    def pipeline(self, rec=None) -> Outcome:
        with _span(rec, "simulation.engine"):
            report = self.traffic.run_load(self.n)
        with _span(rec, "simulation.digest"):
            digest = report.digest()
        with _span(rec, "simulation.summary"):
            summary = report.summary()
        return _load_test_outcome(report, digest, summary, self.n)

    def layer_extras(self, rec, outcome, layers):
        extras = _simulation_counters(outcome, layers["simulation.engine"])
        extras["simulation.arrivals_s"] = _arrivals_standalone_s(
            self.traffic.rate, self.n, self.seed, self.traffic.measurements.request_ids
        )
        return extras


class TracedExport(Workload):
    name = "traced_export"

    def __init__(self, seed, scale, rec, tmp_dir) -> None:
        super().__init__(seed, scale, rec, tmp_dir)
        self.traffic = _IcFixedTraffic(seed, rec)
        self.n = _scaled(2_100, scale, 200)
        self.path = tmp_dir / "traced_export.jsonl"

    def pipeline(self, rec=None) -> Outcome:
        collector = TraceCollector()
        with _span(rec, "obs.traced_run"):
            report = self.traffic.run_load(self.n, trace=collector)
        with _span(rec, "obs.trace_digest"):
            digest = collector.digest()
        with _span(rec, "obs.export"):
            collector.export_jsonl(self.path)
        with _span(rec, "obs.load"):
            loaded = TraceCollector.load_jsonl(self.path)
        with _span(rec, "obs.critical_path"):
            aggregate_breakdown(loaded.traces)
            tail_attribution(loaded.traces)
        with _span(rec, "obs.replay"):
            arrivals = loaded.to_arrivals()
        return Outcome(
            digest=digest,
            n_submitted=self.n,
            n_answered=0,
            n_failed=0,
            n_shed=0,
            engines=[(report.engine_used, report.fallback_reason)],
            report=report,
            extra={"collector": collector, "loaded": loaded, "arrivals": arrivals},
        )

    def after_timing(self, outcome: Outcome) -> None:
        # The traced pipeline never reads the report; the checks do.
        summary = outcome.summary = outcome.report.summary()
        outcome.n_failed = int(summary["n_failed"])
        outcome.n_shed = int(summary["n_shed"])
        outcome.n_answered = (
            int(summary["n_requests"]) - outcome.n_failed - outcome.n_shed
        )

    def rep_checks(self, outcome):
        checks = super().rep_checks(outcome)
        loaded = outcome.extra["loaded"]
        recorded = sorted(r.arrival_s for r in outcome.report.records)
        replayed = outcome.extra["arrivals"].times(self.n, np.random.default_rng(0))
        checks["one trace per request, recorded and loaded"] = (
            len(outcome.extra["collector"]) == self.n and len(loaded) == self.n
        )
        checks["replayed arrivals == recorded arrivals"] = (
            replayed.tolist() == recorded
        )
        return checks

    def once_checks(self, outcome):
        untraced = self.traffic.run_load(self.n)
        return {
            "report digest equal with and without the collector": (
                outcome.report.digest() == untraced.digest()
            ),
            "loaded-trace digest == recorded digest": (
                outcome.extra["loaded"].digest() == outcome.digest
            ),
        }

    def layer_extras(self, rec, outcome, layers):
        untraced_s = statistics.median(
            _timed(lambda: self.traffic.run_load(self.n))[0] for _ in range(3)
        )
        traced_s = layers["obs.traced_run"]
        n_spans = sum(len(t.spans) for t in outcome.extra["collector"].traces)
        extras = _simulation_counters(outcome, untraced_s)
        extras.update(
            {
                "simulation.engine_s": untraced_s,
                "simulation.arrivals_s": _arrivals_standalone_s(
                    self.traffic.rate,
                    self.n,
                    self.seed,
                    self.traffic.measurements.request_ids,
                ),
                "obs.record_s": traced_s - untraced_s,
                "obs.record_overhead_x": traced_s / untraced_s,
                "obs.spans": n_spans,
                "obs.spans_per_s": n_spans / traced_s,
                "obs.export_mb": self.path.stat().st_size / 2**20,
            }
        )
        return extras


# ----------------------------------------------------------------------
# tiered_session
# ----------------------------------------------------------------------
class _SpanBackend:
    """Timing proxy: the backend's ``drain`` becomes a child span.

    ``TierGateway.drain`` runs the engine *inside* itself; wrapping the
    backend is the only way to split the gateway's own ticket resolution
    from the event loop without touching ``src/``.
    """

    def __init__(self, backend, rec) -> None:
        self._backend = backend
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def drain(self):
        with self._rec.span("simulation.engine"):
            return self._backend.drain()


class TieredSession(Workload):
    name = "tiered_session"

    TOLERANCES = (0.0, 0.01, 0.05, 0.10)
    OBJECTIVES = (Objective.RESPONSE_TIME, Objective.COST)
    RATE = 20.0

    def __init__(self, seed, scale, rec, tmp_dir) -> None:
        super().__init__(seed, scale, rec, tmp_dir)
        #: Hook for tests: wraps the backend of every untraced session.
        self.wrap_backend: Optional[Callable] = None
        # The offline stage, sized to dominate setup_s.
        with rec.span("core.tables"):
            self.measurements = measure_ic_service(
                _scaled(20_000, scale, 2_000), device="cpu", seed=IC_TABLE_SEED
            )
            configurations = enumerate_configurations(
                self.measurements,
                thresholds=(0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8),
                fast_versions=[FAST, "ic_cpu_googlenet", "ic_cpu_alexnet"],
            )
        with rec.span("core.rulegen"):
            self.generator = RoutingRuleGenerator(
                self.measurements,
                configurations,
                confidence=0.999,
                seed=RULEGEN_SEED,
                min_trials=10,
                max_trials=400,
            )
        self.n_configurations = len(configurations)
        self.tables = {
            objective: self.generator.generate([0.01, 0.05, 0.10], objective)
            for objective in self.OBJECTIVES
        }
        self.router = TierRouter(self.tables)
        versions = set()
        for table in self.tables.values():
            for configuration in [*table.rules.values(), table.baseline]:
                versions.update(configuration.versions)
        self.pools = {version: 3 for version in sorted(versions)}

        self.n = _scaled(4_000, scale, 200)
        rng = np.random.default_rng(seed)
        tolerances = rng.choice(self.TOLERANCES, self.n)
        objectives = rng.integers(0, len(self.OBJECTIVES), self.n)
        ids = self.measurements.request_ids
        payloads = rng.integers(0, len(ids), self.n)
        self.requests = [
            ServiceRequest(
                request_id=f"q{i:06d}",
                payload=ids[int(payloads[i])],
                tolerance=float(tolerances[i]),
                objective=self.OBJECTIVES[int(objectives[i])],
            )
            for i in range(self.n)
        ]
        self.at_times = PoissonArrivals(self.RATE).times(self.n, rng).tolist()

    def pipeline(self, rec=None) -> Outcome:
        cluster = build_replay_cluster(self.measurements, self.pools)
        backend = SimulatedBackend(cluster, batching=BATCHING, seed=self.seed)
        if rec is not None:
            backend = _SpanBackend(backend, rec)
        elif self.wrap_backend is not None:
            backend = self.wrap_backend(backend)
        gateway = TierGateway(backend, router=self.router)
        with _span(rec, "gateway.submit"):
            tickets = gateway.submit_batch(self.requests, at_times=self.at_times)
        with _span(rec, "gateway.resolve"):
            responses = gateway.drain()
            resolved = unresolved = 0
            for ticket in tickets:
                if ticket.exception() is None:
                    ticket.result()
                    resolved += 1
                elif not ticket.done:
                    unresolved += 1
        report = backend.last_report
        with _span(rec, "simulation.digest"):
            digest = report.digest()
        with _span(rec, "simulation.summary"):
            summary = report.summary()
        outcome = _load_test_outcome(report, digest, summary, self.n)
        outcome.extra.update(
            n_responses=len(responses), n_resolved=resolved, n_unresolved=unresolved
        )
        return outcome

    def rep_checks(self, outcome):
        checks = super().rep_checks(outcome)
        checks["every ticket resolved"] = outcome.extra["n_unresolved"] == 0
        checks["len(responses) == answered"] = (
            outcome.extra["n_responses"]
            == outcome.extra["n_resolved"]
            == outcome.n_answered
        )
        return checks

    def once_checks(self, outcome):
        # A rule must hold on traffic the generator never saw.
        held_out = measure_ic_service(4000, device="cpu", seed=HELD_OUT_SEED)
        checks = {}
        for objective, table in self.tables.items():
            for tolerance, configuration in table.rules.items():
                degradation = evaluate_policy(
                    held_out, configuration.policy
                ).error_degradation
                checks[
                    f"rule {objective.value}@{tolerance:g} within tolerance held out"
                ] = degradation <= tolerance
        return checks

    def layer_extras(self, rec, outcome, layers):
        setup = rec.self_times_by_name(rec.roots("setup")[0])
        trials = sum(e.n_trials for e in self.generator.results)
        route_s = _timed(
            lambda: [self.router.route_request(r) for r in self.requests]
        )[0]
        extras = _simulation_counters(outcome, layers["simulation.engine"])
        extras.update(
            {
                "core.rulegen_trials": trials,
                "core.rulegen_trials_per_s": trials / setup["core.rulegen"],
                "core.route_us": route_s / self.n * 1e6,
                "simulation.arrivals_s": _arrivals_standalone_s(
                    self.RATE, self.n, self.seed, self.measurements.request_ids
                ),
            }
        )
        return extras


# ----------------------------------------------------------------------
# chaos_control
# ----------------------------------------------------------------------
# Copied from benchmarks/bench_control_plane.py (its ``adaptive`` controller
# on the sharpened node-crash scenario), so edits there cannot move this.
# One value differs: tolerance_step is 0.15, not 0.06.  With five rungs to
# max_tolerance, how far each crash cycle climbs — hence how many refits run,
# half the host time — depended on the arrival draw: wall_s spread 28 %
# across ten seeds (at 3 200 requests), more than any bound allows.  Two
# rungs keep the ladder and bring the seed's share of the spread to ~5 %.
CHAOS_RATE = 6.0
CHAOS_CYCLE_S = 100.0
CHAOS_CONTROL = ControlSpec(
    window_s=8.0,
    tick_interval_s=0.25,
    slos=(
        SLOSpec(
            name="latency", max_p95_latency_s=2.5, breach_after=1, clear_after=8
        ),
    ),
    admission=AdmissionSpec(policy="degrade"),
    adaptor=AdaptorConfig(
        refit_interval_s=1.0,
        min_window_samples=15,
        degradation_mode="absolute",
        tolerance_step=0.15,
        max_tolerance=0.30,
        thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
    ),
)


def _toy_configuration() -> EnsembleConfiguration:
    return EnsembleConfiguration("scenario_seq", SequentialPolicy("fast", "slow", 0.6))


def _periodic_crashes(version: str, first_s: float, down_s: float, horizon_s: float):
    """A crash/recover pair every cycle, so faults span the whole run."""
    return tuple(
        NodeCrash(
            at_s=first_s + CHAOS_CYCLE_S * k,
            version=version,
            node_index=0,
            recover_at_s=first_s + down_s + CHAOS_CYCLE_S * k,
        )
        for k in range(int(max(horizon_s - first_s, 0.0) // CHAOS_CYCLE_S) + 1)
    )


class ChaosControl(Workload):
    name = "chaos_control"

    def __init__(self, seed, scale, rec, tmp_dir) -> None:
        super().__init__(seed, scale, rec, tmp_dir)
        self.measurements = scenario_measurements()
        self.n = _scaled(800, scale, 200)
        self.spec = ScenarioSpec(
            name="e2e-chaos-control",
            arrivals=PoissonArrivals(CHAOS_RATE),
            n_requests=self.n,
            pools={"fast": 2, "slow": 2},
            configuration=_toy_configuration(),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
            faults=_periodic_crashes("slow", 6.0, 24.0, self.n / CHAOS_RATE),
            control=CHAOS_CONTROL,
            seed=seed,
        )

    def _run_load(self, spec: ScenarioSpec, *, check_invariants: bool = False):
        gateway = TierGateway(
            SimulatedBackend.from_scenario(
                spec, self.measurements, check_invariants=check_invariants
            ),
            configuration=spec.configuration,
        )
        return gateway.run_load(
            spec.arrivals,
            spec.n_requests,
            tolerance=spec.tolerance,
            objective=spec.objective,
            payload_ids=self.measurements.request_ids,
        )

    def pipeline(self, rec=None) -> Outcome:
        with _span(rec, "simulation.engine"):
            report = self._run_load(self.spec)
        with _span(rec, "simulation.digest"):
            digest = report.digest()
        with _span(rec, "simulation.summary"):
            summary = report.summary()
        return _load_test_outcome(report, digest, summary, self.n)

    def once_checks(self, outcome):
        try:
            checked = self._run_load(self.spec, check_invariants=True)
        except InvariantViolation:
            return {"check_invariants=True run passes": False}
        return {
            "check_invariants=True run passes": True,
            "invariant-checked run has the same digest": (
                checked.digest() == outcome.digest
            ),
        }

    def layer_extras(self, rec, outcome, layers):
        report = outcome.report
        closed_s = layers["simulation.engine"]
        static_s = _timed(lambda: self._run_load(replace(self.spec, control=None)))[0]
        tick_s = CHAOS_CONTROL.tick_interval_s
        last_finished = max(r.finished_s for r in report.records)
        ticks = int(last_finished / tick_s)
        extras = _simulation_counters(outcome, closed_s)
        extras.update(
            {
                "simulation.arrivals_s": _arrivals_standalone_s(
                    CHAOS_RATE, self.n, self.seed, self.measurements.request_ids
                ),
                "simulation.static_twin_s": static_s,
                "control.overhead_x": closed_s / static_s,
                "control.ticks": ticks,
                "control.tick_ms": (closed_s - static_s) / ticks * 1e3,
                "control.n_shed": outcome.n_shed,
                "control.n_degraded": outcome.summary["n_degraded"],
                "control.n_log_entries": len(report.control_log),
            }
        )
        extras.update(self._telemetry_replay(report.records, ticks, tick_s))
        return extras

    @staticmethod
    def _telemetry_replay(records, ticks: int, tick_s: float) -> Dict[str, float]:
        """The run's records through a fresh hub, one snapshot per tick."""
        hub = TelemetryHub(CHAOS_CONTROL.window_s)
        monitors = [SLOMonitor(slo) for slo in CHAOS_CONTROL.slos]
        clock = time.perf_counter
        publish_s = snapshot_s = evaluate_s = 0.0
        records = list(records)
        cursor, now = 0, 0.0
        for tick in range(1, ticks + 1):
            tick_time = tick * tick_s
            t0 = clock()
            while cursor < len(records) and records[cursor].finished_s <= tick_time:
                # Finalisation can stamp a finish a hair before the event
                # that delivered it; the hub needs a non-decreasing clock.
                now = max(now, records[cursor].finished_s)
                hub.publish(records[cursor], now=now)
                cursor += 1
            t1 = clock()
            snapshot = hub.snapshot(max(now, tick_time))
            t2 = clock()
            for monitor in monitors:
                monitor.evaluate(snapshot)
            t3 = clock()
            publish_s += t1 - t0
            snapshot_s += t2 - t1
            evaluate_s += t3 - t2
        return {
            "control.publish_us": publish_s / max(cursor, 1) * 1e6,
            "control.snapshot_us": snapshot_s / ticks * 1e6,
            "control.slo_eval_us": evaluate_s / ticks * 1e6,
        }


# ----------------------------------------------------------------------
# regions_failover
# ----------------------------------------------------------------------
def _best_two_worker_makespan(times: List[float]) -> float:
    """Shortest finish of ``times`` split over two workers (exhaustive)."""
    total = sum(times)
    best = total
    for k in range(len(times) + 1):
        for subset in itertools.combinations(times, k):
            best = min(best, max(sum(subset), total - sum(subset)))
    return best


class RegionsFailover(Workload):
    name = "regions_failover"

    def __init__(self, seed, scale, rec, tmp_dir) -> None:
        super().__init__(seed, scale, rec, tmp_dir)
        self.measurements = scenario_measurements()
        n = self.n_per_region = _scaled(1_400, scale, 100)
        self._parallel: Optional[Tuple[float, str]] = None

        def scenario(region: str, **overrides) -> ScenarioSpec:
            fields = dict(
                name=f"e2e-{region}",
                arrivals=PoissonArrivals(3.0),
                n_requests=n,
                pools={"fast": 2, "slow": 2},
                configuration=_toy_configuration(),
            )
            fields.update(overrides)
            return ScenarioSpec(**fields)

        crashing_rate = 4.0
        self.spec = MultiRegionSpec(
            name="e2e-regions-failover",
            regions=(
                RegionSpec(
                    name="us-east",
                    scenario=scenario(
                        "us-east",
                        arrivals=PoissonArrivals(4.0),
                        pools={"fast": 3, "slow": 2},
                    ),
                ),
                RegionSpec(
                    name="eu-west",
                    scenario=scenario(
                        "eu-west",
                        arrivals=PoissonArrivals(crashing_rate),
                        pools={"fast": 1, "slow": 1},
                        retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
                        faults=_periodic_crashes(
                            "fast", 5.0, 10.0, n / crashing_rate
                        ),
                    ),
                ),
                RegionSpec(
                    name="ap-south",
                    scenario=scenario(
                        "ap-south",
                        arrivals=PoissonArrivals(6.0),
                        pools={"fast": 1, "slow": 1},
                    ),
                    capacity_rps=5.0,
                    failover=("us-east", "sa-east"),
                    slos=(
                        SLOSpec(name="ap-p95", max_p95_latency_s=0.5),
                        SLOSpec(name="ap-avail", min_availability=0.9),
                    ),
                ),
                RegionSpec(name="sa-east", scenario=scenario("sa-east")),
            ),
            partitions=(
                RegionPartition(
                    region="ap-south", peer="us-east", start_s=40.0, end_s=140.0
                ),
            ),
            link_latency_s=0.08,
            seed=seed,
        )

    def pipeline(self, rec=None) -> Outcome:
        m = self.measurements
        shard_times: List[float] = []
        if rec is None:
            report = run_multi_region(self.spec, m)
        else:
            # run_multi_region with default arguments, piece by piece.
            with rec.span("regions.audit"):
                audit_seed_streams(multi_region_streams(self.spec))
            with rec.span("regions.plan"):
                plan = RegionRouter(self.spec, m).plan()
            with rec.span("regions.tasks"):
                tasks = build_shard_tasks(plan, m)
            results = []
            for task in tasks:
                with rec.span("regions.shards") as span:
                    results.append(run_shard(task))
                shard_times.append(span.duration_s)
            with rec.span("regions.merge"):
                report = merge_shards(plan, results)
        with _span(rec, "regions.digest"):
            digest = report.digest()
        with _span(rec, "regions.summary"):
            summary = report.summary()
        conserved = True
        with _span(rec, "regions.conservation"):
            try:
                report.verify_conservation()
            except ConservationError:
                conserved = False
        outcome = Outcome(
            digest=digest,
            n_submitted=int(summary["n_requests"]),
            n_answered=int(summary["n_completed"]),
            n_failed=int(summary["n_failed"]),
            n_shed=int(summary["n_shed"]),
            engines=[(s.engine_used, s.fallback_reason) for s in report.shards],
            summary=summary,
            report=report,
            extra={"conserved": conserved, "shard_times": shard_times},
        )
        if rec is not None:
            outcome.extra.update(tasks=tasks, results=results)
        return outcome

    def rep_checks(self, outcome):
        checks = super().rep_checks(outcome)
        checks["every region's arrivals generated"] = (
            outcome.n_submitted == 4 * self.n_per_region
        )
        checks["verify_conservation() passes"] = outcome.extra["conserved"]
        return checks

    def _parallel_twin(self) -> Tuple[float, str]:
        if self._parallel is None:
            wall_s, report = _timed(
                lambda: run_multi_region(self.spec, self.measurements, parallel=2)
            )
            self._parallel = (wall_s, report.digest())
        return self._parallel

    def once_checks(self, outcome):
        return {
            "serial digest == parallel=2 digest": outcome.digest
            == self._parallel_twin()[1]
        }

    def sim_metrics(self, outcome):
        summary = outcome.summary
        return {
            "sim_p95_latency_s": summary["p95_user_latency_s"],
            "sim_goodput_rps": summary["goodput_rps"],
            "sim_cost_per_req": summary["total_cost"] / summary["n_requests"],
        }

    def layer_extras(self, rec, outcome, layers):
        summary = outcome.summary
        shard_times = outcome.extra["shard_times"]
        task_pickle_s, task_blobs = _timed(
            lambda: [pickle.dumps(t) for t in outcome.extra["tasks"]]
        )
        result_blobs = [pickle.dumps(r) for r in outcome.extra["results"]]
        parallel_s = self._parallel_twin()[0]
        serial_s = sum(
            layers[name]
            for name in (
                "regions.audit",
                "regions.plan",
                "regions.tasks",
                "regions.shards",
                "regions.merge",
            )
        )
        fixed_s = layers["regions.plan"] + layers["regions.merge"]
        packed_s = _best_two_worker_makespan(shard_times)
        return {
            "simulation.columnar_share": outcome.columnar_share,
            "regions.shard_max_s": max(shard_times),
            "regions.task_pickle_s": task_pickle_s,
            "regions.task_pickle_mb": sum(map(len, task_blobs)) / 2**20,
            "regions.result_pickle_mb": sum(map(len, result_blobs)) / 2**20,
            "regions.parallel2_s": parallel_s,
            "regions.parallel_speedup_x": serial_s / parallel_s,
            "regions.per_shard_overhead_ms": (parallel_s - fixed_s - packed_s)
            / len(shard_times)
            * 1e3,
            "regions.n_failovers": summary["n_failovers"],
            "regions.n_denied": summary["n_failover_denied"],
            "regions.n_boundary_events": summary["n_boundary_events"],
            "regions.legacy_shards": sum(
                1 for used, _ in outcome.engines if used == "legacy"
            ),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (SteadyFixed, TieredSession, ChaosControl, RegionsFailover, TracedExport)
}
