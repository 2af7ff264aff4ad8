"""One region shard: an independent engine run plus its local analysis.

:func:`run_shard` is the unit of work a multi-region run fans out — the
same function executes serially in-process and on
``ProcessPoolExecutor`` workers, which is what makes the parallel run
digest-identical to the serial one: there is exactly one code path.

A shard builds its region's simulator through the same
:func:`~repro.service.simulation.scenarios.build_simulator` as
:func:`run_scenario`, submits the planned workload explicitly (kept
local arrivals in draw order, then incoming failover traffic), drains,
and then does every per-region analysis *inside the worker* so it
parallelises with the simulation:
the shard report digest, the summary, the user-perceived latency array
(failover traffic pays its round trip), and the region SLO replay —
debounced :class:`SLOMonitor` evaluation over the region's own
telemetry window, emitting region-named control entries
(``region-slo`` transitions and ``region-decision`` advisories saying
*which region* to shed or adapt).

The returned :class:`ShardResult` is deliberately lean — digest,
summary, merge arrays and logs, not ~10^5 record objects — so pickling
results back from workers cannot eat the parallel speedup.  Pass
``keep_report=True`` (serial convenience) to retain the full
:class:`LoadTestReport`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.contract import REGION_SLO_TICK_S, REGION_SLO_WINDOW_S
from repro.service.control.plane import ControlLogEntry
from repro.service.control.slo import SLOMonitor, SLOState
from repro.service.control.telemetry import TelemetryHub
from repro.service.measurement import MeasurementSet
from repro.service.regions.router import PlannedRows
from repro.service.regions.spec import RegionSpec
from repro.service.simulation.replay import build_replay_cluster
from repro.service.simulation.report import LoadTestReport
from repro.service.simulation.scenarios import ScenarioSpec, build_simulator

if TYPE_CHECKING:
    from repro.obs.trace import Trace

__all__ = ["ShardResult", "ShardTask", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs — picklable, fully self-contained.

    ``scenario`` already carries the spawned shard seed (the plan phase
    substituted it).
    """

    region: RegionSpec
    index: int
    scenario: ScenarioSpec
    measurements: MeasurementSet
    submissions: PlannedRows
    offered_rate: Optional[float]
    n_assigned: int
    n_kept: int
    n_outgoing: int
    n_denied: int
    check_invariants: bool = False
    keep_report: bool = False
    #: Record one span tree per request (see :mod:`repro.obs`).  The
    #: shard builds its own collector inside the worker and ships its
    #: sealed trees back (they pickle), so the parallel run merges to the
    #: same trace stream as the serial one.
    trace: bool = False


@dataclass
class ShardResult:
    """One region's contribution to the merged multi-region report.

    Attributes:
        region: Region name.
        index: Declaration index in the multi-region spec.
        shard_seed: The spawned root seed the shard ran under.
        digest: The shard report's digest (or the canonical empty-shard
            digest when every arrival failed over and none arrived).
        summary: The shard report's flat summary dict (zeros when empty).
        engine_used: Execution engine that actually ran the shard.
        fallback_reason: The shard report's ``fallback_reason``.
        n_submitted / n_local / n_incoming: Workload accounting.
        n_assigned / n_outgoing / n_denied: Routing accounting (from
            the plan; conservation checks tie the two together).
        n_completed / n_failed / n_shed: Outcome accounting.
        user_latencies_ok: User-perceived response time of every
            answered request (in-region response plus the inter-region
            round trip for failover traffic), for global percentiles.
        last_finished_s: Latest request finish time (0.0 when empty).
        total_cost: Summed invocation cost.
        fault_log / control_log: The shard engine's logs.
        slo_log: Region SLO replay entries (region-named).
        final_pool_sizes: Pool sizes at drain.
        report: The full shard report when ``keep_report`` was set.
        traces: One sealed :class:`~repro.obs.trace.Trace` per
            recorded request (completion order) when the task asked for
            tracing.
        trace_run_events: Recorded run-level events as
            ``(time_s, kind, detail, region)`` tuples.
    """

    region: str
    index: int
    shard_seed: int
    digest: str
    summary: Dict[str, float]
    engine_used: Optional[str]
    fallback_reason: Optional[str]
    n_submitted: int
    n_local: int
    n_incoming: int
    n_assigned: int
    n_outgoing: int
    n_denied: int
    n_completed: int
    n_failed: int
    n_shed: int
    user_latencies_ok: np.ndarray
    last_finished_s: float
    total_cost: float
    fault_log: List[object] = field(default_factory=list)
    control_log: List[object] = field(default_factory=list)
    slo_log: List[ControlLogEntry] = field(default_factory=list)
    final_pool_sizes: Dict[str, int] = field(default_factory=dict)
    report: Optional[LoadTestReport] = None
    traces: Optional[List[Trace]] = None
    trace_run_events: Optional[List[Tuple[float, str, str, Optional[str]]]] = (
        None
    )


def _empty_result(task: ShardTask) -> ShardResult:
    """A shard whose workload fully failed over ran nothing at all."""
    digest = hashlib.sha256(
        f"empty-shard:{task.region.name}".encode()
    ).hexdigest()
    return ShardResult(
        region=task.region.name,
        index=task.index,
        shard_seed=task.scenario.seed,
        digest=digest,
        summary={},
        engine_used=None,
        fallback_reason=None,
        n_submitted=0,
        n_local=0,
        n_incoming=0,
        n_assigned=task.n_assigned,
        n_outgoing=task.n_outgoing,
        n_denied=task.n_denied,
        n_completed=0,
        n_failed=0,
        n_shed=0,
        user_latencies_ok=np.empty(0, dtype=float),
        last_finished_s=0.0,
        total_cost=0.0,
        traces=[] if task.trace else None,
        trace_run_events=[] if task.trace else None,
    )


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one region shard end to end (simulate + analyse)."""
    rows = task.submissions
    if not rows:
        return _empty_result(task)
    scenario = task.scenario
    n_local = rows.origins.count(task.region.name)
    recorder = None
    collector = None
    if task.trace:
        # The shard wraps its own collector (the simulator would do the
        # same) because failover annotations live on the recorder.
        from repro.obs.record import SimTraceRecorder
        from repro.obs.trace import TraceCollector

        collector = TraceCollector()
        recorder = SimTraceRecorder(collector)
        for submission in rows:
            if submission.origin != task.region.name:
                recorder.annotate_failover(
                    submission.request_id,
                    home=submission.origin,
                    served=task.region.name,
                    extra_latency_s=submission.extra_latency_s,
                )
    simulator = build_simulator(
        build_replay_cluster(task.measurements, dict(scenario.pools)),
        router=scenario.router,
        configuration=scenario.configuration,
        measurements=task.measurements,
        check_invariants=task.check_invariants,
        trace=recorder,
        **scenario.engine_fields(),
    )
    simulator.submit_rows(
        rows.request_ids,
        rows.payloads,
        rows.at_times.tolist(),
        rows.tolerances,
        rows.objectives,
    )
    report = simulator.drain()
    report.offered_rate = task.offered_rate

    extra = dict(zip(rows.request_ids, rows.extra_latency_s.tolist()))

    # The tally and the SLO replay read the report's arrays, so a
    # shard builds no RequestRecord.
    columns = report.columns
    shed = columns.shed
    failed = columns.failed & ~shed
    answered = ~(columns.failed | shed)
    last_finished = max(0.0, float(columns.finished_s.max()))
    # Added one by one, left to right: the merged summary's cost is
    # compared exactly, and ndarray.sum (pairwise) rounds differently.
    total_cost = 0.0
    for cost in columns.invocation_cost[answered].tolist():
        total_cost += cost
    round_trip = np.array(
        [extra.get(request_id, 0.0) for request_id in columns.request_ids]
    )
    user_latencies = (columns.response_time_s + round_trip)[answered]
    slo_log = _RegionSLOReplay(task.region)
    slo_log.replay(report)

    return ShardResult(
        region=task.region.name,
        index=task.index,
        shard_seed=scenario.seed,
        digest=report.digest(),
        summary=report.summary(),
        engine_used=report.engine_used,
        fallback_reason=report.fallback_reason,
        n_submitted=len(rows),
        n_local=n_local,
        n_incoming=len(rows) - n_local,
        n_assigned=task.n_assigned,
        n_outgoing=task.n_outgoing,
        n_denied=task.n_denied,
        n_completed=int(np.count_nonzero(answered)),
        n_failed=int(np.count_nonzero(failed)),
        n_shed=int(np.count_nonzero(shed)),
        user_latencies_ok=user_latencies,
        last_finished_s=last_finished,
        total_cost=total_cost,
        fault_log=list(report.fault_log),
        control_log=list(report.control_log),
        slo_log=slo_log.entries,
        final_pool_sizes=dict(report.final_pool_sizes),
        report=report if task.keep_report else None,
        traces=collector.traces if collector is not None else None,
        trace_run_events=(
            list(collector.run_events) if collector is not None else None
        ),
    )


class _RegionSLOReplay:
    """Region SLO monitors over the shard's record stream.

    Records publish into the region's own :class:`TelemetryHub` window
    in completion order; monitors evaluate on the region's tick cadence
    interleaved with publication, exactly as a live control plane
    would.  State transitions log as ``region-slo`` entries and a
    breach additionally logs the ``region-decision`` advisory the
    global control loop acts on: *shed* this region when latency or
    availability breaks, *adapt* it when cost does.
    """

    def __init__(self, region: RegionSpec) -> None:
        self._region = region.name
        self._hub = TelemetryHub(REGION_SLO_WINDOW_S)
        self._monitors = [SLOMonitor(slo) for slo in region.slos]
        self._next_tick = REGION_SLO_TICK_S
        self.entries: List[ControlLogEntry] = []

    def replay(self, report: LoadTestReport) -> None:
        """Publish the report in completion order, evaluating every tick
        that falls due before a row lands and once more after the last."""
        if not self._monitors:
            return
        # finalization can stamp a finish fractionally before the event
        # that delivered it; the hub needs a non-decreasing clock.
        columns = report.columns
        clocks = np.maximum.accumulate(np.maximum(columns.finished_s, 0.0))
        cursor = 0
        while cursor < len(clocks):
            while self._next_tick <= clocks[cursor]:
                self._evaluate(self._next_tick)
                self._next_tick += REGION_SLO_TICK_S
            # Everything that lands before the next tick goes in together.
            stop = int(np.searchsorted(clocks, self._next_tick))
            self._hub.publish_columns(
                columns, slice(cursor, stop), clocks[cursor:stop]
            )
            cursor = stop
        self._evaluate(max(self._next_tick, float(clocks[-1])))

    def _evaluate(self, now: float) -> None:
        snapshot = self._hub.snapshot(now)
        for monitor in self._monitors:
            status = monitor.evaluate(snapshot)
            if not status.transitioned:
                continue
            pressures = ",".join(
                f"{metric}={ratio:.3f}"
                for metric, ratio in sorted(status.pressures.items())
            )
            self.entries.append(
                ControlLogEntry(
                    time_s=now,
                    kind="region-slo",
                    detail=(
                        f"[{self._region}] {status.name}: "
                        f"{status.state.name.lower()}"
                        + (f" ({pressures})" if pressures else "")
                    ),
                    region=self._region,
                )
            )
            if status.state is SLOState.BREACH:
                action = (
                    "adapt"
                    if max(
                        status.pressures,
                        key=lambda m: status.pressures[m],
                        default="",
                    )
                    == "cost_per_request"
                    else "shed"
                )
                self.entries.append(
                    ControlLogEntry(
                        time_s=now,
                        kind="region-decision",
                        detail=(
                            f"[{self._region}] {action} {self._region}: "
                            f"{status.name} breached"
                        ),
                        region=self._region,
                    )
                )
