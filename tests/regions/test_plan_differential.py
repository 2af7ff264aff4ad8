"""The columnar region plan against the per-arrival loop it replaced.

Every spec here is planned twice: by ``RegionRouter.plan()`` and by
``tests/oracle/region_plan_reference.py``'s verbatim copy of the old
loop.  The two must agree row for row (times bitwise), event for event
and counter for counter.  The specs start from the determinism suite's
``_fuzz_spec`` and add what that sweep rarely reaches: several
partitions, ``peer=None`` cuts, a capacity on every region, declared
failover orders, crashes that never recover, partition edges that tie
a decision's arrival time, and traces whose arrivals tie one another.
"""

import dataclasses

import numpy as np
import pytest

from oracle.region_plan_reference import reference_plan
from repro.service.regions import PlannedSubmission, RegionRouter
from repro.service.simulation import NodeCrash, RegionPartition, TraceArrivals
from test_determinism import _fuzz_spec

N_SPECS = 48


def _extend(spec, rng):
    """``_fuzz_spec``'s topology plus the shapes the plan must order."""
    names = spec.region_names
    regions = []
    capacity_everywhere = rng.random() < 0.4
    tied_traces = len(names) > 1 and rng.random() < 0.3
    trace = np.repeat(np.sort(rng.uniform(0.2, 6.0, 8)), int(rng.integers(2, 6)))
    for region in spec.regions:
        scenario = region.scenario
        faults = scenario.faults
        if rng.random() < 0.35:
            # Never recovers: the region is down from here on.
            faults += (
                NodeCrash(
                    at_s=float(rng.uniform(0.5, 6.0)),
                    version=str(rng.choice(["fast", "slow"])),
                ),
            )
        if tied_traces:
            scenario = dataclasses.replace(
                scenario, arrivals=TraceArrivals(trace), n_requests=len(trace)
            )
        failover = None
        peers = [name for name in names if name != region.name]
        if peers and rng.random() < 0.5:
            failover = tuple(
                str(peer)
                for peer in rng.permutation(peers)[
                    : int(rng.integers(1, len(peers) + 1))
                ]
            )
        capacity = region.capacity_rps
        if capacity_everywhere:
            capacity = float(rng.uniform(0.5, 4.0))
        regions.append(
            dataclasses.replace(
                region,
                scenario=dataclasses.replace(scenario, faults=faults),
                failover=failover,
                capacity_rps=capacity,
                saturation_window_s=float(rng.choice([0.5, 1.0, 2.0])),
            )
        )
    partitions = list(spec.partitions)
    if len(names) > 1:
        for _ in range(int(rng.integers(0, 4))):
            region, peer = rng.choice(names, size=2, replace=False)
            start = float(rng.uniform(0.0, 8.0))
            partitions.append(
                RegionPartition(
                    region=str(region),
                    peer=None if rng.random() < 0.4 else str(peer),
                    start_s=start,
                    end_s=(
                        float("inf")
                        if rng.random() < 0.25
                        else start + float(rng.uniform(0.5, 5.0))
                    ),
                    bidirectional=bool(rng.random() < 0.7),
                )
            )
    spec = dataclasses.replace(
        spec, regions=tuple(regions), partitions=tuple(partitions)
    )
    return spec


def _tie_an_edge(spec, toy, rng):
    """Open (and heal) a partition exactly at decision arrival times."""
    decisions = [
        e for e in reference_plan(spec, toy).boundary_events
        if e.kind.startswith("failover")
    ]
    if not decisions:
        return spec
    first, last = sorted(
        rng.choice(len(decisions), size=2, replace=len(decisions) < 2)
    )
    opened, healed = decisions[first], decisions[last]
    end_s = healed.time_s if healed.time_s > opened.time_s else float("inf")
    peer = [n for n in spec.region_names if n != opened.region]
    return dataclasses.replace(
        spec,
        partitions=spec.partitions
        + (
            RegionPartition(
                region=opened.region,
                peer=str(rng.choice(peer)) if peer and rng.random() < 0.5 else None,
                start_s=opened.time_s,
                end_s=end_s,
            ),
        ),
    )


def _spec(case, toy):
    rng = np.random.default_rng(4000 + case)
    spec = _extend(_fuzz_spec(rng), rng)
    if case % 3 == 0:
        spec = _tie_an_edge(spec, toy, rng)
    return spec


def _rows(submissions):
    return [
        (
            s.request_id,
            s.payload,
            float(s.at_time).hex(),
            s.tolerance,
            s.objective,
            s.origin,
            float(s.extra_latency_s).hex(),
        )
        for s in submissions
    ]


def _events(plan):
    return [
        (float(e.time_s).hex(), e.region, e.seq, e.kind, e.detail, e.target)
        for e in plan.boundary_events
    ]


COUNTERS = (
    "index",
    "shard_seed",
    "offered_rate",
    "n_assigned",
    "n_kept",
    "n_outgoing",
    "n_denied",
    "n_incoming",
)


@pytest.mark.parametrize("case", range(N_SPECS))
def test_columnar_plan_equals_the_per_arrival_loop(case, toy):
    spec = _spec(case, toy)
    got = RegionRouter(spec, toy).plan()
    want = reference_plan(spec, toy)
    assert _events(got) == _events(want)
    assert len(got.shards) == len(want.shards)
    for shard, ref in zip(got.shards, want.shards):
        assert shard.region is ref.region
        for name in COUNTERS:
            assert getattr(shard, name) == getattr(ref, name), name
        assert len(shard.submissions) == len(ref.submissions)
        assert all(type(s) is PlannedSubmission for s in shard.submissions)
        assert _rows(shard.submissions) == _rows(ref.submissions)


def test_the_family_reaches_every_ordering_question(toy):
    """The sweep keeps its teeth: each shape the plan orders occurs."""
    seen = set()
    for case in range(N_SPECS):
        spec = _spec(case, toy)
        plan = reference_plan(spec, toy)
        events = plan.boundary_events
        kinds = {(e.kind, e.detail.split("|")[1:2] == ["saturated"]) for e in events}
        if ("failover", True) in kinds:
            seen.add("saturated failover")
        if any(kind == "failover-denied" for kind, _ in kinds):
            seen.add("denial")
        if any(p.peer is None for p in spec.partitions):
            seen.add("peer=None")
        if len(spec.partitions) > 1:
            seen.add("several partitions")
        if all(r.capacity_rps is not None for r in spec.regions):
            seen.add("capacity everywhere")
        if any(r.failover is not None for r in spec.regions):
            seen.add("declared failover")
        if any(
            isinstance(f, NodeCrash) and f.recover_at_s is None
            for r in spec.regions
            for f in r.scenario.faults
        ):
            seen.add("crash without recovery")
        decided = {
            (e.region, e.time_s) for e in events if e.kind.startswith("failover")
        }
        if any(
            (e.region, e.time_s) in decided
            for e in events
            if e.kind.startswith("partition")
        ):
            seen.add("edge ties a decision")
        for shard in plan.shards:
            arrivals = [s.at_time for s in shard.submissions if s.origin != shard.region.name]
            if len(set(arrivals)) < len(arrivals):
                seen.add("incoming arrivals tie")
        if any(
            s.n_denied and s.region.capacity_rps is not None for s in plan.shards
        ):
            seen.add("denial in a capacity region")
    assert seen == {
        "saturated failover",
        "denial",
        "peer=None",
        "several partitions",
        "capacity everywhere",
        "declared failover",
        "crash without recovery",
        "edge ties a decision",
        "incoming arrivals tie",
        "denial in a capacity region",
    }
