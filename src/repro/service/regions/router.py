"""The region router: locality-first routing with planned failover.

The router is the *plan phase* of a multi-region run.  It extends the
load-balancer's within-pool selection with a between-region decision:
every arrival is locality-first (served by its home region), and spills
to a failover peer only when the home region is **dead** (a pool's
advertised live-node count is zero), **saturated** (kept arrivals in the
trailing window exceed the advertised capacity), or the request would
stay home because every candidate link is **partitioned** — in which
case the denial is recorded and the request takes its chances locally.

Everything the router consults is *static*: per-region arrival times and
payload picks drawn from the spawned shard streams, pool-health
timelines swept from the declared ``NodeCrash`` schedule, declared
capacities, and declared partitions.  That makes the plan a pure
function of the spec — shards can then execute in any order, on any
number of worker processes, and the merged result cannot depend on
execution interleaving.  The price is fidelity at the margins: the
router sees health-check-level signals (it does not model autoscaler
replacements or the queue depth a spillover wave creates at its
target), exactly like a production global load balancer routing on
advertised health rather than ground truth.

The plan is array work.  A region's down check is one ``searchsorted``
over its health timeline; only arrivals that need a decision (every
arrival of a region with a ``capacity_rps``, the down ones elsewhere)
take a trip through a Python loop; incoming failover traffic is ordered
by one ``lexsort``; and each shard's workload travels as
:class:`PlannedRows` columns, which the shard submits as rows.

Cross-shard interactions surface as :class:`BoundaryEvent` records —
failovers, denials, partition opens/heals — each stamped with its home
region and a per-region sequence number assigned in time order, so the
merged stream has the deterministic ``(time, region, seq)`` total order
the multi-region digest pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.measurement import MeasurementSet
from repro.service.simulation.faults import NodeCrash
from repro.service.regions.spec import MultiRegionSpec, RegionSpec

__all__ = [
    "BoundaryEvent",
    "PlannedRows",
    "PlannedSubmission",
    "RegionRouter",
    "RouterPlan",
    "ShardPlan",
]


@dataclass(frozen=True)
class BoundaryEvent:
    """One cross-shard interaction, in the home region's event stream.

    Attributes:
        time_s: Virtual time of the decision (the arrival's home time,
            or a partition window edge).
        region: Home region owning the event (and its ``seq`` counter).
        seq: Position in the home region's boundary stream, assigned in
            time order — the merge tie-break after ``time_s`` and the
            region's declaration index.
        kind: ``"failover"``, ``"failover-denied"``, ``"partition"`` or
            ``"partition-heal"``.
        detail: Deterministic context (request id, trigger, peer).
        target: Destination region for ``"failover"`` events.
    """

    time_s: float
    region: str
    seq: int
    kind: str
    detail: str
    target: Optional[str] = None


@dataclass(frozen=True)
class PlannedSubmission:
    """One row of :class:`PlannedRows`: a request as a shard submits it.

    ``extra_latency_s`` is the inter-region round trip a failed-over
    request pays on top of its in-region response time (forward leg +
    response leg); zero for local traffic.
    """

    request_id: str
    payload: object
    at_time: float
    tolerance: float
    objective: object
    origin: str
    extra_latency_s: float = 0.0


@dataclass(frozen=True, eq=False)
class PlannedRows:
    """One shard's workload as parallel columns, in submission order.

    The shard hands the columns to
    :meth:`~repro.service.simulation.engine.ServingSimulator.submit_rows`
    as they are; iterating yields each row as a
    :class:`PlannedSubmission`.
    """

    request_ids: List[str]
    payloads: List[object]
    at_times: np.ndarray
    tolerances: List[float]
    objectives: List[object]
    origins: List[str]
    extra_latency_s: np.ndarray

    def __len__(self) -> int:
        return len(self.request_ids)

    def __iter__(self) -> Iterator[PlannedSubmission]:
        for row in zip(
            self.request_ids,
            self.payloads,
            self.at_times.tolist(),
            self.tolerances,
            self.objectives,
            self.origins,
            self.extra_latency_s.tolist(),
        ):
            yield PlannedSubmission(*row)


@dataclass
class ShardPlan:
    """Everything one region shard needs to execute independently.

    Attributes:
        region: The region spec.
        index: Declaration index (fixes the spawned seed and merge
            tie-breaks).
        shard_seed: Spawned root seed for the shard's RNG streams.
        submissions: The shard's workload as columns in submission
            order — kept local arrivals first (draw order), then
            incoming failover traffic ordered by ``(arrival time, home
            index, home draw)``.
        offered_rate: Mean rate of the region's *assigned* arrival
            stream (pre-failover), mirroring ``ServingSimulator.run``.
        n_assigned: Arrivals the region's own stream generated.
        n_kept: Assigned arrivals served locally (includes denials).
        n_outgoing: Assigned arrivals that failed over to a peer.
        n_denied: Arrivals that needed failover but found no open link.
        n_incoming: Failover arrivals received from peers.
    """

    region: RegionSpec
    index: int
    shard_seed: int
    submissions: PlannedRows
    offered_rate: Optional[float]
    n_assigned: int
    n_kept: int
    n_outgoing: int
    n_denied: int
    n_incoming: int


@dataclass
class RouterPlan:
    """The full routing plan: per-shard workloads + the boundary stream."""

    spec: MultiRegionSpec
    shards: List[ShardPlan]
    boundary_events: Tuple[BoundaryEvent, ...]


class _HealthTimeline:
    """Advertised pool health of one region, swept from its crash schedule.

    The region is *down* while any declared pool's live-node count is
    zero: crashes subtract at ``at_s``, replacements add back at
    ``recover_at_s``.  This is the health-check view — autoscaler
    replacements and mid-window evictions are invisible to it by
    design (see the module docstring).
    """

    def __init__(self, region: RegionSpec) -> None:
        intervals: List[Tuple[float, float]] = []
        pools = dict(region.scenario.pools)
        deltas: Dict[str, List[Tuple[float, int]]] = {}
        for fault in region.scenario.faults:
            if not isinstance(fault, NodeCrash):
                continue
            deltas.setdefault(fault.version, []).append((fault.at_s, -1))
            if fault.recover_at_s is not None:
                deltas[fault.version].append((fault.recover_at_s, +1))
        for version, events in deltas.items():
            live = pools[version]
            down_since: Optional[float] = None
            for at_s, delta in sorted(events):
                live += delta
                if live <= 0 and down_since is None:
                    down_since = at_s
                elif live > 0 and down_since is not None:
                    intervals.append((down_since, at_s))
                    down_since = None
            if down_since is not None:
                intervals.append((down_since, float("inf")))
        # A leading empty interval keeps every lookup in range.
        merged: List[List[float]] = [[-np.inf, -np.inf]]
        for start, end in sorted(intervals):
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = np.array([start for start, _ in merged])
        self._ends = np.array([end for _, end in merged])

    def down(self, times: np.ndarray) -> np.ndarray:
        """Per time: whether any pool advertises zero live nodes then."""
        i = np.searchsorted(self._starts, times, side="right") - 1
        return times < self._ends[i]


class RegionRouter:
    """Plans locality-first routing with failover for one multi-region run."""

    def __init__(
        self, spec: MultiRegionSpec, measurements: MeasurementSet
    ) -> None:
        self.spec = spec
        self.measurements = measurements

    # ------------------------------------------------------------------
    def plan(self) -> RouterPlan:
        """Compute the full routing plan (pure; no engine state touched)."""
        spec = self.spec
        payload_pool: Sequence[object] = list(self.measurements.request_ids)
        if not payload_pool:
            raise ValueError("measurements provide no payload ids")
        names = spec.region_names
        health = [_HealthTimeline(r) for r in spec.regions]
        #: Failover rows of every region: (arrival at the target, home
        #: index, home draw, payload pick, target index, link latency).
        moved: List[Tuple[float, int, int, int, int, float]] = []
        events: List[Tuple[Tuple[float, int, int], BoundaryEvent]] = []
        routed = [
            self._route_region(i, len(payload_pool), health, moved, events)
            for i in range(len(names))
        ]

        # Incoming traffic of every target in one sort: by target, then
        # (arrival time, home index, home draw).
        columns = np.array(moved, dtype=float).reshape(-1, 6).T
        arrive, link = columns[0], columns[5]
        home, draw, pick, target = columns[1:5].astype(np.int64)
        order = np.lexsort((draw, home, arrive, target))
        bounds = np.searchsorted(target[order], np.arange(len(names) + 1))

        shards: List[ShardPlan] = []
        for i, region in enumerate(spec.regions):
            times, picks, local, denied = routed[i]
            inc = order[bounds[i] : bounds[i + 1]]
            homes = [spec.regions[h] for h in home[inc].tolist()]
            n_local = len(local)
            scenario = region.scenario
            submissions = PlannedRows(
                request_ids=[f"load_{j:06d}" for j in local.tolist()]
                + [
                    f"{h.name}:load_{j:06d}"
                    for h, j in zip(homes, draw[inc].tolist())
                ],
                payloads=[
                    payload_pool[p]
                    for p in picks[local].tolist() + pick[inc].tolist()
                ],
                at_times=np.concatenate([times[local], arrive[inc]]),
                tolerances=[scenario.tolerance] * n_local
                + [h.scenario.tolerance for h in homes],
                objectives=[scenario.objective] * n_local
                + [h.scenario.objective for h in homes],
                origins=[region.name] * n_local + [h.name for h in homes],
                extra_latency_s=np.concatenate(
                    [np.zeros(n_local), 2.0 * link[inc]]
                ),
            )
            span = float(times[-1] - times[0]) if len(times) > 1 else 0.0
            shards.append(
                ShardPlan(
                    region=region,
                    index=i,
                    shard_seed=spec.shard_seed(i),
                    submissions=submissions,
                    offered_rate=(
                        scenario.n_requests / span if span > 0.0 else None
                    ),
                    n_assigned=scenario.n_requests,
                    n_kept=n_local,
                    n_outgoing=scenario.n_requests - n_local,
                    n_denied=denied,
                    n_incoming=len(inc),
                )
            )

        events.sort(key=lambda item: item[0])
        return RouterPlan(
            spec=spec,
            shards=shards,
            boundary_events=tuple(event for _, event in events),
        )

    # ------------------------------------------------------------------
    def _route_region(
        self,
        index: int,
        n_payloads: int,
        health: Sequence[_HealthTimeline],
        moved: List[Tuple[float, int, int, int, int, float]],
        events: List[Tuple[Tuple[float, int, int], BoundaryEvent]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Draw and route one region's arrival stream.

        Appends the region's failover rows to ``moved`` and its boundary
        events, keyed ``(time, region index, seq)``, to ``events``;
        returns the drawn times and payload picks, the kept rows' draw
        indices in arrival order, and the denial count.
        """
        spec = self.spec
        region = spec.regions[index]
        names = spec.region_names
        # Exactly run()'s draw order under the spawned seed: arrival
        # times first, then payload picks — so a shard with no failover
        # in or out digests identically to the plain scenario run under
        # the same seed.
        rng = np.random.default_rng(spec.shard_seed(index))
        n = region.scenario.n_requests
        times = np.asarray(region.scenario.arrivals.times(n, rng), dtype=float)
        picks = rng.integers(0, n_payloads, size=n)
        order = np.argsort(times, kind="stable")  # arrival order, ties by draw
        down = health[index].down(times)
        limit = None
        if region.capacity_rps is not None:
            limit = region.capacity_rps * region.saturation_window_s
        # Only these rows can leave home: every row of a region that can
        # saturate, else the ones arriving while it is down.
        visit = order if limit is not None else order[down[order]]
        at_visit = times[visit]
        candidates = [
            (names.index(peer), ~health[names.index(peer)].down(at_visit))
            for peer in spec.failover_order(region.name)
        ]

        # The region's moment stream: partition edges it owns interleave
        # with its decisions in time order, partition edges first on ties
        # (a link is down from exactly start_s, healed from exactly
        # end_s), so per-region seq numbers are a pure function of time.
        moments: List[Tuple[float, int, int, str, str, Optional[str]]] = []
        for p, partition in enumerate(spec.partitions):
            if partition.region != region.name:
                continue
            detail = f"{partition.region}-x-{partition.peer or '*'}"
            moments.append((partition.start_s, 0, p, "partition", detail, None))
            if np.isfinite(partition.end_s):
                moments.append(
                    (partition.end_s, 0, p, "partition-heal", detail, None)
                )

        keep = np.ones(n, dtype=bool)
        #: Kept arrivals (denials included) in the trailing window.
        recent: deque = deque()
        window_s = region.saturation_window_s
        denied = 0
        for k, (j, at_s) in enumerate(zip(visit.tolist(), at_visit.tolist())):
            if down[j]:
                reason = "down"
            else:
                while recent and recent[0] <= at_s - window_s:
                    recent.popleft()
                if len(recent) < limit:
                    recent.append(at_s)
                    continue
                reason = "saturated"
            detail = f"load_{j:06d}|{reason}"
            target = next(
                (
                    peer
                    for peer, live in candidates
                    if live[k]
                    and not spec.link_severed(region.name, names[peer], at_s)
                ),
                None,
            )
            if target is None:
                # No open link to a live peer: the request stays home
                # and takes whatever its degraded pools offer.
                recent.append(at_s)
                denied += 1
                moments.append(
                    (at_s, 1, j, "failover-denied", f"{detail}|no-target", None)
                )
                continue
            keep[j] = False
            link_s = spec.link_latency(region.name, names[target])
            moments.append((at_s, 1, j, "failover", detail, names[target]))
            moved.append((at_s + link_s, index, j, int(picks[j]), target, link_s))

        moments.sort(key=lambda m: m[:3])
        for seq, (time_s, _, _, kind, detail, target) in enumerate(moments):
            event = BoundaryEvent(time_s, region.name, seq, kind, detail, target)
            events.append(((time_s, index, seq), event))
        return times, picks, order[keep[order]], denied
