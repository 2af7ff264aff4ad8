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

Cross-shard interactions surface as :class:`BoundaryEvent` records —
failovers, denials, partition opens/heals — each stamped with its home
region and a per-region sequence number assigned in time order, so the
merged stream has the deterministic ``(time, region, seq)`` total order
the multi-region digest pins.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.measurement import MeasurementSet
from repro.service.simulation.faults import NodeCrash
from repro.service.regions.spec import MultiRegionSpec, RegionSpec

__all__ = [
    "BoundaryEvent",
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
    """One request as a shard will submit it.

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


@dataclass
class ShardPlan:
    """Everything one region shard needs to execute independently.

    Attributes:
        region: The region spec.
        index: Declaration index (fixes the spawned seed and merge
            tie-breaks).
        shard_seed: Spawned root seed for the shard's RNG streams.
        submissions: The shard's workload in submission order — kept
            local arrivals first (draw order), then incoming failover
            traffic ordered by ``(arrival time, home index, home draw)``.
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
    submissions: List[PlannedSubmission]
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
        merged: List[List[float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]

    def down_at(self, at_s: float) -> bool:
        """Whether any pool advertises zero live nodes at ``at_s``."""
        i = bisect.bisect_right(self._starts, at_s) - 1
        return i >= 0 and at_s < self._ends[i]


class _SaturationWindow:
    """Trailing-window arrival counter against an advertised capacity."""

    def __init__(self, region: RegionSpec) -> None:
        self._window_s = region.saturation_window_s
        self._limit: Optional[float] = None
        if region.capacity_rps is not None:
            self._limit = region.capacity_rps * region.saturation_window_s
        self._kept: deque = deque()

    def saturated(self, at_s: float) -> bool:
        if self._limit is None:
            return False
        horizon = at_s - self._window_s
        kept = self._kept
        while kept and kept[0] <= horizon:
            kept.popleft()
        return len(kept) >= self._limit

    def keep(self, at_s: float) -> None:
        if self._limit is not None:
            self._kept.append(at_s)


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
        index_of = {name: i for i, name in enumerate(spec.region_names)}
        health = {r.name: _HealthTimeline(r) for r in spec.regions}

        drawn: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, region in enumerate(spec.regions):
            # Exactly run()'s draw order under the spawned seed: arrival
            # times first, then payload picks — so a shard with no
            # failover in or out digests identically to the plain
            # scenario run under the same seed.
            rng = np.random.default_rng(spec.shard_seed(i))
            times = np.asarray(
                region.scenario.arrivals.times(
                    region.scenario.n_requests, rng
                ),
                dtype=float,
            )
            picks = rng.integers(
                0, len(payload_pool), size=region.scenario.n_requests
            )
            drawn.append((times, picks))

        events: List[BoundaryEvent] = []
        locals_of: Dict[str, List[PlannedSubmission]] = {
            name: [] for name in spec.region_names
        }
        incoming_of: Dict[
            str, List[Tuple[float, int, int, PlannedSubmission]]
        ] = {name: [] for name in spec.region_names}
        counters: Dict[str, Dict[str, int]] = {}

        for i, region in enumerate(spec.regions):
            times, picks = drawn[i]
            counters[region.name] = self._route_region(
                region,
                i,
                times,
                picks,
                payload_pool,
                health,
                index_of,
                events,
                locals_of[region.name],
                incoming_of,
            )

        shards: List[ShardPlan] = []
        for i, region in enumerate(spec.regions):
            times, _ = drawn[i]
            incoming = sorted(
                incoming_of[region.name], key=lambda item: item[:3]
            )
            submissions = locals_of[region.name] + [
                item[3] for item in incoming
            ]
            span = float(times[-1] - times[0]) if len(times) > 1 else 0.0
            stats = counters[region.name]
            shards.append(
                ShardPlan(
                    region=region,
                    index=i,
                    shard_seed=spec.shard_seed(i),
                    submissions=submissions,
                    offered_rate=(
                        region.scenario.n_requests / span
                        if span > 0.0
                        else None
                    ),
                    n_assigned=region.scenario.n_requests,
                    n_kept=stats["kept"],
                    n_outgoing=stats["out"],
                    n_denied=stats["denied"],
                    n_incoming=len(incoming),
                )
            )

        merged = tuple(
            sorted(events, key=lambda e: (e.time_s, index_of[e.region], e.seq))
        )
        return RouterPlan(spec=spec, shards=shards, boundary_events=merged)

    # ------------------------------------------------------------------
    def _route_region(
        self,
        region: RegionSpec,
        index: int,
        times: np.ndarray,
        picks: np.ndarray,
        payload_pool: Sequence[object],
        health: Dict[str, _HealthTimeline],
        index_of: Dict[str, int],
        events: List[BoundaryEvent],
        local_out: List[PlannedSubmission],
        incoming_of: Dict[
            str, List[Tuple[float, int, int, PlannedSubmission]]
        ],
    ) -> Dict[str, int]:
        """Route one region's arrival stream; returns its counters."""
        spec = self.spec
        scenario = region.scenario
        saturation = _SaturationWindow(region)
        preferences = spec.failover_order(region.name)
        home_health = health[region.name]

        # The region's moment stream: partition edges it owns interleave
        # with its arrivals in time order, partition edges first on ties
        # (a link is down from exactly start_s, healed from exactly
        # end_s), so per-region seq numbers are a pure function of time.
        moments: List[Tuple[float, int, int, object]] = []
        for j in range(len(times)):
            moments.append((float(times[j]), 1, j, None))
        for p, partition in enumerate(spec.partitions):
            if partition.region != region.name:
                continue
            detail = f"{partition.region}-x-{partition.peer or '*'}"
            moments.append((partition.start_s, 0, p, ("partition", detail)))
            if np.isfinite(partition.end_s):
                moments.append(
                    (partition.end_s, 0, p, ("partition-heal", detail))
                )
        moments.sort(key=lambda m: m[:3])

        seq = 0
        kept = out = denied = 0
        for at_s, _, j, edge in moments:
            if edge is not None:
                kind, detail = edge
                events.append(
                    BoundaryEvent(
                        time_s=at_s,
                        region=region.name,
                        seq=seq,
                        kind=kind,
                        detail=detail,
                    )
                )
                seq += 1
                continue

            request_id = f"load_{j:06d}"
            payload = payload_pool[int(picks[j])]
            reason = None
            if home_health.down_at(at_s):
                reason = "down"
            elif saturation.saturated(at_s):
                reason = "saturated"
            if reason is None:
                saturation.keep(at_s)
                kept += 1
                local_out.append(
                    PlannedSubmission(
                        request_id=request_id,
                        payload=payload,
                        at_time=at_s,
                        tolerance=scenario.tolerance,
                        objective=scenario.objective,
                        origin=region.name,
                    )
                )
                continue

            target = None
            for candidate in preferences:
                if spec.link_severed(region.name, candidate, at_s):
                    continue
                if health[candidate].down_at(at_s):
                    continue
                target = candidate
                break

            if target is None:
                # No open link to a live peer: the request stays home
                # and takes whatever its degraded pools offer.
                events.append(
                    BoundaryEvent(
                        time_s=at_s,
                        region=region.name,
                        seq=seq,
                        kind="failover-denied",
                        detail=f"{request_id}|{reason}|no-target",
                    )
                )
                seq += 1
                saturation.keep(at_s)
                kept += 1
                denied += 1
                local_out.append(
                    PlannedSubmission(
                        request_id=request_id,
                        payload=payload,
                        at_time=at_s,
                        tolerance=scenario.tolerance,
                        objective=scenario.objective,
                        origin=region.name,
                    )
                )
                continue

            link_s = spec.link_latency(region.name, target)
            events.append(
                BoundaryEvent(
                    time_s=at_s,
                    region=region.name,
                    seq=seq,
                    kind="failover",
                    detail=f"{request_id}|{reason}",
                    target=target,
                )
            )
            seq += 1
            out += 1
            incoming_of[target].append(
                (
                    at_s + link_s,
                    index,
                    j,
                    PlannedSubmission(
                        request_id=f"{region.name}:{request_id}",
                        payload=payload,
                        at_time=at_s + link_s,
                        tolerance=scenario.tolerance,
                        objective=scenario.objective,
                        origin=region.name,
                        extra_latency_s=2.0 * link_s,
                    ),
                )
            )
        return {"kept": kept, "out": out, "denied": denied}
