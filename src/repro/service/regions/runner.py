"""Execute a multi-region run: plan serially, shard anywhere, merge.

:func:`run_multi_region` is the subsystem's entry point.  The three
phases make parallel determinism structural rather than lucky:

1. **Plan** (serial): :class:`~repro.service.regions.router.RegionRouter`
   draws every region's arrivals from its spawned seed stream and fixes
   every failover decision and boundary event up front.
2. **Shard** (serial or ``parallel=N`` worker processes): each region
   executes :func:`~repro.service.regions.shard.run_shard` on a fully
   self-contained task.  Workers share no state; each shard picks its
   loop from its own run, so where it runs cannot change behaviour.
3. **Merge** (serial): results key back to declaration order and fold
   with the planned boundary stream into a
   :class:`~repro.service.regions.report.MultiRegionReport`, whose
   digest is therefore identical however phase 2 executed.

The RNG spawn-key discipline is audited on every run:
:func:`multi_region_streams` enumerates each shard's derived streams
(engine, faults, storm buckets, admission) and
:func:`~repro.service.simulation.seeds.audit_seed_streams` raises if
any two consumers would share a key.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.service.measurement import MeasurementSet
from repro.service.regions.report import MultiRegionReport, merge_shards
from repro.service.regions.router import RegionRouter, RouterPlan, ShardPlan
from repro.service.regions.shard import ShardResult, ShardTask, run_shard
from repro.service.regions.spec import MultiRegionSpec
from repro.service.simulation.seeds import (
    audit_seed_streams,
    streams_for_spec,
)

__all__ = [
    "build_shard_tasks",
    "multi_region_streams",
    "run_multi_region",
]


def multi_region_streams(spec: MultiRegionSpec) -> Dict[str, Tuple[int, ...]]:
    """Every RNG stream a multi-region run derives, as ``name -> key``.

    The root seed itself is reserved (spawning only), and each shard's
    family re-derives engine/fault/storm/admission streams from its
    spawned 64-bit seed — all enumerated here so the audit can prove
    pairwise disjointness.
    """
    streams: Dict[str, Tuple[int, ...]] = {"root": (spec.seed,)}
    for i, region in enumerate(spec.regions):
        shard_scenario = replace(region.scenario, seed=spec.shard_seed(i))
        streams.update(
            streams_for_spec(shard_scenario, prefix=f"{region.name}/")
        )
    return streams


def build_shard_tasks(
    plan: RouterPlan,
    measurements: MeasurementSet,
    *,
    check_invariants: bool = False,
    keep_reports: bool = False,
    trace: bool = False,
) -> List[ShardTask]:
    """Self-contained worker tasks for every shard of a plan."""
    tasks: List[ShardTask] = []
    for shard in plan.shards:
        tasks.append(
            ShardTask(
                region=shard.region,
                index=shard.index,
                scenario=replace(
                    shard.region.scenario, seed=shard.shard_seed
                ),
                measurements=measurements,
                submissions=shard.submissions,
                offered_rate=shard.offered_rate,
                n_assigned=shard.n_assigned,
                n_kept=shard.n_kept,
                n_outgoing=shard.n_outgoing,
                n_denied=shard.n_denied,
                check_invariants=check_invariants,
                keep_report=keep_reports,
                trace=trace,
            )
        )
    return tasks


def _merge_traces(results: List[ShardResult], sink) -> None:
    """Fold per-shard traces into ``sink`` in a parallel-stable order.

    Shards finish their requests on independent virtual clocks, so the
    merged stream sorts by ``(finish time, region index, shard seq)`` —
    fully determined by the plan, never by worker scheduling.  Every
    trace root and run event is stamped with its region so a merged
    collector can still be cut back per region.
    """
    keyed = []
    for result in results:
        for seq, trace in enumerate(result.traces or ()):
            trace.root.attrs.setdefault("region", result.region)
            keyed.append(((trace.root.end_s, result.index, seq), trace))
    keyed.sort(key=lambda item: item[0])
    for _, trace in keyed:  # the shard sealed every tree
        sink.add_sealed(trace)
    events = []
    for result in results:
        for seq, (time_s, kind, detail, region) in enumerate(
            result.trace_run_events or ()
        ):
            events.append(
                (
                    (time_s, result.index, seq),
                    (time_s, kind, detail, region or result.region),
                )
            )
    events.sort(key=lambda item: item[0])
    for _, (time_s, kind, detail, region) in events:
        sink.add_run_event(time_s, kind, detail, region)


def run_multi_region(
    spec: MultiRegionSpec,
    measurements: MeasurementSet,
    *,
    parallel: Optional[int] = None,
    check_invariants: bool = False,
    keep_reports: bool = False,
    trace=None,
) -> MultiRegionReport:
    """Run a multi-region spec end to end.

    Args:
        spec: The multi-region load test.
        measurements: Shared measurement table every region's replay
            pools draw service times from.
        parallel: Worker-process count for the shard phase; ``None`` or
            ``1`` runs shards serially in-process.  The merged report
            (and its digest) is identical either way.
        check_invariants: Enable each shard engine's conservation
            checker (the multi-region conservation identities are
            always verified at merge time).
        keep_reports: Retain each shard's full
            :class:`~repro.service.simulation.report.LoadTestReport`
            on its result (serial-friendly; costs pickling when
            combined with ``parallel``).
        trace: Optional :class:`~repro.obs.trace.TraceCollector` that
            receives one span tree per request across every region,
            merged in ``(finish time, region index, shard seq)`` order.
            Failover traffic carries a ``failover-hop`` span linking
            its home and serving regions.  Opt-in and digest-neutral:
            the merged report digest is identical with or without it.
    """
    audit_seed_streams(multi_region_streams(spec))
    plan = RegionRouter(spec, measurements).plan()
    tasks = build_shard_tasks(
        plan,
        measurements,
        check_invariants=check_invariants,
        keep_reports=keep_reports,
        trace=trace is not None,
    )
    results: List[ShardResult]
    if parallel is not None and parallel > 1 and len(tasks) > 1:
        # Imported here: a serial run never loads the process pool.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallel, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(run_shard, tasks))
    else:
        results = [run_shard(task) for task in tasks]
    if trace is not None:
        _merge_traces(results, trace)
    return merge_shards(plan, results)
