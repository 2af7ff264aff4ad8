"""Declarative multi-region serving specs.

A :class:`RegionSpec` wraps one region's :class:`ScenarioSpec` — its
pools, arrival stream, faults, autoscaling and (optionally) closed-loop
control — and adds the region-level vocabulary: SLOs evaluated over the
region's own telemetry window, an advertised capacity for
saturation-driven failover, and a failover preference order.  A
:class:`MultiRegionSpec` composes regions with the inter-region
topology: link latencies, :class:`RegionPartition` windows, and one
root seed from which every shard's RNG streams spawn.

Seeding.  A region's embedded scenario seed is *ignored*: shard ``i``
runs under ``spawn_region_seed(multi_spec.seed, i)`` (a
``SeedSequence``-derived 64-bit root), so regions never share a stream
and a shard is bit-identical to a plain single-region scenario carrying
the same spawned seed — :meth:`MultiRegionSpec.equivalent_scenario`
builds exactly that scenario, and the determinism tests pin the
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.service.control.slo import SLOSpec
from repro.service.measurement import MeasurementSet
from repro.service.simulation.faults import RegionPartition, ThunderingHerd
from repro.service.simulation.replay import build_replay_cluster
from repro.service.simulation.scenarios import ScenarioSpec
from repro.service.simulation.seeds import spawn_region_seed

__all__ = [
    "MultiRegionSpec",
    "RegionSpec",
    "derive_capacity_rps",
]


@dataclass(frozen=True)
class RegionSpec:
    """One region of a multi-region serving deployment.

    Attributes:
        name: Region identifier (``"us-east"``); used in boundary
            events, qualified request ids and the merged report.
        scenario: The region's own load test — pools, arrivals, faults,
            autoscaling, control.  Its ``seed`` field is overridden by
            the spawned shard seed; its ``name`` is kept for the shard
            report.  ``ThunderingHerd`` faults are rejected: the herd
            transform acts on ``run()``-generated workloads, and region
            shards receive their workload by explicit submission.
        slos: Region-level SLOs, evaluated over the region's own
            telemetry window (:data:`~repro.contract.REGION_SLO_WINDOW_S`,
            every :data:`~repro.contract.REGION_SLO_TICK_S`) after the
            shard drains (advisory — they name the region in the merged
            control log; put an SLO in ``scenario.control`` to make it
            *actuate* admission).
        failover: Peer preference order for spillover.  ``None`` tries
            peers in the multi-region spec's declaration order.
        capacity_rps: Advertised request-rate capacity for
            saturation-driven failover; ``None`` disables the saturation
            trigger (dead pools and partitions still apply).  See
            :func:`derive_capacity_rps` for a measurement-derived value.
        saturation_window_s: Trailing window over which kept arrivals
            are counted against ``capacity_rps``; an arrival spills once
            the window holds ``capacity_rps × saturation_window_s``.
    """

    name: str
    scenario: ScenarioSpec
    slos: Tuple[SLOSpec, ...] = ()
    failover: Optional[Tuple[str, ...]] = None
    capacity_rps: Optional[float] = None
    saturation_window_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a region needs a name")
        for fault in self.scenario.faults:
            if isinstance(fault, ThunderingHerd):
                raise ValueError(
                    f"region {self.name!r}: ThunderingHerd transforms "
                    "run()-generated arrivals and cannot apply to a "
                    "region shard's explicit submissions"
                )
            if isinstance(fault, RegionPartition):
                raise ValueError(
                    f"region {self.name!r}: RegionPartition belongs in "
                    "MultiRegionSpec.partitions, not a region's fault "
                    "schedule"
                )
        # Written so NaN fails too.
        if self.capacity_rps is not None and not self.capacity_rps > 0.0:
            raise ValueError("capacity_rps must be positive")
        if not self.saturation_window_s > 0.0:
            raise ValueError("saturation_window_s must be positive")


@dataclass(frozen=True)
class MultiRegionSpec:
    """A sharded multi-region load test.

    Attributes:
        name: Identifier for reports and golden files.
        regions: The member regions, in declaration order (which fixes
            shard indices, spawned seeds and merge tie-breaks).
        partitions: Severed failover links
            (:class:`~repro.service.simulation.faults.RegionPartition`).
        link_latency_s: Default one-way inter-region latency; a failed-
            over request arrives at its target this much later, and its
            user-perceived latency pays the round trip.
        link_latencies: Per-directed-pair overrides, keyed
            ``(src, dst)``.
        seed: Root seed; shard ``i`` spawns
            ``spawn_region_seed(seed, i)``.
    """

    name: str
    regions: Tuple[RegionSpec, ...]
    partitions: Tuple[RegionPartition, ...] = ()
    link_latency_s: float = 0.05
    link_latencies: Mapping[Tuple[str, str], float] = field(
        default_factory=dict
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a multi-region spec needs a name")
        if not self.regions:
            raise ValueError("a multi-region spec needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {sorted(names)}")
        known = set(names)
        for region in self.regions:
            for peer in region.failover or ():
                if peer == region.name:
                    raise ValueError(
                        f"region {region.name!r} lists itself as a "
                        "failover target"
                    )
                if peer not in known:
                    raise ValueError(
                        f"region {region.name!r} lists unknown failover "
                        f"target {peer!r}"
                    )
        for partition in self.partitions:
            if partition.region not in known:
                raise ValueError(
                    f"partition names unknown region {partition.region!r}"
                )
            if partition.peer is not None and partition.peer not in known:
                raise ValueError(
                    f"partition names unknown peer {partition.peer!r}"
                )
        # Written so NaN fails too.
        if not self.link_latency_s >= 0.0:
            raise ValueError("link_latency_s must be non-negative")
        for (src, dst), latency in self.link_latencies.items():
            if src not in known or dst not in known:
                raise ValueError(
                    f"link latency names unknown pair ({src!r}, {dst!r})"
                )
            if not latency >= 0.0:
                raise ValueError("link_latencies must be non-negative")

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def region_names(self) -> Tuple[str, ...]:
        """Region names in declaration (= shard-index) order."""
        return tuple(region.name for region in self.regions)

    def region(self, name: str) -> RegionSpec:
        """The member region called ``name``."""
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"unknown region {name!r}")

    def shard_seed(self, index: int) -> int:
        """Spawned root seed for shard ``index``."""
        if not 0 <= index < len(self.regions):
            raise IndexError(f"no region at index {index}")
        return spawn_region_seed(self.seed, index)

    def failover_order(self, name: str) -> Tuple[str, ...]:
        """Peer preference order for ``name`` (declared or spec order)."""
        region = self.region(name)
        if region.failover is not None:
            return region.failover
        return tuple(n for n in self.region_names if n != name)

    def link_latency(self, src: str, dst: str) -> float:
        """One-way latency of the directed ``src -> dst`` link."""
        return float(self.link_latencies.get((src, dst), self.link_latency_s))

    def link_severed(self, src: str, dst: str, at_s: float) -> bool:
        """Whether any partition severs ``src -> dst`` at ``at_s``."""
        return any(p.severs(src, dst, at_s) for p in self.partitions)

    # ------------------------------------------------------------------
    # single-region equivalence
    # ------------------------------------------------------------------
    def equivalent_scenario(self, index: int = 0) -> ScenarioSpec:
        """The plain :class:`ScenarioSpec` shard ``index`` executes.

        For a 1-region spec with no failover traffic this scenario's
        :func:`~repro.service.simulation.scenarios.run_scenario` report
        is digest-identical to the region's shard report — the anchor
        the determinism suite pins.
        """
        region = self.regions[index]
        return replace(region.scenario, seed=self.shard_seed(index))


def derive_capacity_rps(
    region: RegionSpec, measurements: MeasurementSet
) -> float:
    """Measurement-derived advertised capacity for one region.

    Builds the region's replay pools and asks the load balancer for its
    :meth:`~repro.service.load_balancer.LoadBalancer.advertised_capacity_rps`
    under each version's mean measured latency — the number a production
    region would export from a health endpoint.
    """
    cluster = build_replay_cluster(
        measurements, dict(region.scenario.pools)
    )
    service_times: Dict[str, float] = {
        version: measurements.mean_latency(version)
        for version in region.scenario.pools
    }
    return cluster.load_balancer.advertised_capacity_rps(service_times)
