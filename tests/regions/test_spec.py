"""Validation and topology semantics of the multi-region specs."""

import numpy as np
import pytest

from repro.service.regions import (
    MultiRegionSpec,
    RegionSpec,
    derive_capacity_rps,
)
from repro.service.simulation import (
    PoissonArrivals,
    RegionPartition,
    ScenarioSpec,
    ThunderingHerd,
    affected_versions,
)
from repro.service.simulation.scenarios import _tiered_configuration


def _scenario(name="r", **overrides):
    defaults = dict(
        name=name,
        arrivals=PoissonArrivals(3.0),
        n_requests=20,
        pools={"fast": 1, "slow": 1},
        configuration=_tiered_configuration(),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _region(name="us", **overrides):
    defaults = dict(name=name, scenario=_scenario(f"s-{name}"))
    defaults.update(overrides)
    return RegionSpec(**defaults)


class TestRegionSpec:
    def test_needs_name(self):
        with pytest.raises(ValueError, match="needs a name"):
            RegionSpec(name="", scenario=_scenario())

    def test_rejects_thundering_herd(self):
        herd = ThunderingHerd(start_s=1.0, end_s=2.0)
        with pytest.raises(ValueError, match="ThunderingHerd"):
            _region(scenario=_scenario(faults=(herd,)))

    def test_rejects_region_partition_in_scenario_faults(self):
        partition = RegionPartition(region="us", start_s=1.0, end_s=2.0)
        with pytest.raises(ValueError, match="MultiRegionSpec.partitions"):
            _region(scenario=_scenario(faults=(partition,)))

    def test_rejects_bad_capacity_and_windows(self):
        with pytest.raises(ValueError, match="capacity_rps"):
            _region(capacity_rps=0.0)
        with pytest.raises(ValueError, match="saturation_window_s"):
            _region(saturation_window_s=-1.0)

    # NaN compares false both ways: ``x <= 0`` let each of these through.
    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity_rps"):
            _region(capacity_rps=float("nan"))

    def test_nan_saturation_window_rejected(self):
        with pytest.raises(ValueError, match="saturation_window_s"):
            _region(saturation_window_s=float("nan"))


class TestRegionPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="region name"):
            RegionPartition(region="", start_s=0.0, end_s=1.0)
        with pytest.raises(ValueError, match="itself"):
            RegionPartition(region="us", peer="us", start_s=0.0, end_s=1.0)
        with pytest.raises(ValueError, match="end_s"):
            RegionPartition(region="us", start_s=2.0, end_s=2.0)

    def test_nan_end_rejected(self):
        with pytest.raises(ValueError, match="end_s"):
            RegionPartition(region="us", start_s=2.0, end_s=float("nan"))

    def test_severs_directed_pair_and_window(self):
        p = RegionPartition(
            region="us", peer="eu", start_s=5.0, end_s=10.0,
            bidirectional=False,
        )
        assert p.severs("us", "eu", 5.0)
        assert p.severs("us", "eu", 9.999)
        assert not p.severs("us", "eu", 10.0)
        assert not p.severs("us", "eu", 4.999)
        assert not p.severs("eu", "us", 7.0)
        assert not p.severs("us", "ap", 7.0)

    def test_bidirectional_and_wildcard(self):
        both = RegionPartition(region="us", peer="eu", start_s=0.0, end_s=1.0)
        assert both.severs("eu", "us", 0.5)
        isolated = RegionPartition(region="us", start_s=0.0, end_s=1.0)
        assert isolated.severs("us", "eu", 0.5)
        assert isolated.severs("us", "ap", 0.5)
        assert isolated.severs("eu", "us", 0.5)
        assert not isolated.severs("eu", "ap", 0.5)

    def test_rejected_by_engine_fault_validation(self):
        partition = RegionPartition(region="us", start_s=0.0, end_s=1.0)
        with pytest.raises(ValueError, match="MultiRegionSpec.partitions"):
            affected_versions(partition)


class TestMultiRegionSpec:
    def test_duplicate_region_names(self):
        with pytest.raises(ValueError, match="duplicate region names"):
            MultiRegionSpec(
                name="m", regions=(_region("us"), _region("us"))
            )

    def test_failover_targets_validated(self):
        with pytest.raises(ValueError, match="unknown failover"):
            MultiRegionSpec(
                name="m",
                regions=(_region("us", failover=("mars",)), _region("eu")),
            )
        with pytest.raises(ValueError, match="itself"):
            MultiRegionSpec(
                name="m",
                regions=(_region("us", failover=("us",)), _region("eu")),
            )

    def test_partitions_and_links_validated(self):
        regions = (_region("us"), _region("eu"))
        with pytest.raises(ValueError, match="unknown region"):
            MultiRegionSpec(
                name="m",
                regions=regions,
                partitions=(
                    RegionPartition(region="mars", start_s=0.0, end_s=1.0),
                ),
            )
        with pytest.raises(ValueError, match="unknown pair"):
            MultiRegionSpec(
                name="m",
                regions=regions,
                link_latencies={("us", "mars"): 0.1},
            )
        with pytest.raises(ValueError, match="non-negative"):
            MultiRegionSpec(
                name="m", regions=regions, link_latencies={("us", "eu"): -0.1}
            )

    def test_shard_seeds_unique_and_stable(self):
        spec = MultiRegionSpec(
            name="m", regions=(_region("us"), _region("eu"), _region("ap")),
            seed=42,
        )
        seeds = [spec.shard_seed(i) for i in range(3)]
        assert len(set(seeds)) == 3
        assert seeds == [spec.shard_seed(i) for i in range(3)]
        other = MultiRegionSpec(name="m", regions=spec.regions, seed=43)
        assert [other.shard_seed(i) for i in range(3)] != seeds

    def test_failover_order_defaults_to_spec_order(self):
        spec = MultiRegionSpec(
            name="m",
            regions=(
                _region("us"),
                _region("eu", failover=("ap",)),
                _region("ap"),
            ),
        )
        assert spec.failover_order("us") == ("eu", "ap")
        assert spec.failover_order("eu") == ("ap",)

    def test_link_latency_override(self):
        spec = MultiRegionSpec(
            name="m",
            regions=(_region("us"), _region("eu")),
            link_latency_s=0.05,
            link_latencies={("us", "eu"): 0.2},
        )
        assert spec.link_latency("us", "eu") == 0.2
        assert spec.link_latency("eu", "us") == 0.05

    def test_equivalent_scenario_carries_spawned_seed(self):
        spec = MultiRegionSpec(
            name="m", regions=(_region("us"), _region("eu")), seed=7
        )
        scenario = spec.equivalent_scenario(1)
        assert scenario.seed == spec.shard_seed(1)
        assert scenario.pools == spec.regions[1].scenario.pools

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"name": ""}, "needs a name"),
            ({"regions": ()}, "at least one region"),
            (
                {
                    "partitions": (
                        RegionPartition(
                            region="us", peer="mars", start_s=0.0, end_s=1.0
                        ),
                    )
                },
                "unknown peer 'mars'",
            ),
            ({"link_latency_s": -0.01}, "link_latency_s"),
            # NaN compares false both ways: ``x < 0`` let these through.
            ({"link_latency_s": float("nan")}, "link_latency_s"),
            ({"link_latencies": {("us", "eu"): float("nan")}}, "link_latencies"),
        ],
        ids=[
            "no-name", "no-regions", "unknown-peer", "negative-link",
            "nan-link", "nan-link-override",
        ],
    )
    def test_spec_level_fields_validated(self, kwargs, match):
        arguments = dict(name="m", regions=(_region("us"), _region("eu")))
        arguments.update(kwargs)
        with pytest.raises(ValueError, match=match):
            MultiRegionSpec(**arguments)

    def test_lookups_refuse_unknown_regions_and_indices(self):
        spec = MultiRegionSpec(name="m", regions=(_region("us"), _region("eu")))
        assert spec.region("eu") is spec.regions[1]
        with pytest.raises(KeyError, match="mars"):
            spec.region("mars")
        with pytest.raises(IndexError, match="no region at index 2"):
            spec.shard_seed(2)
        with pytest.raises(IndexError, match="no region at index -1"):
            spec.shard_seed(-1)



def test_derive_capacity_rps(toy):
    region = _region("us", scenario=_scenario(pools={"fast": 2, "slow": 1}))
    capacity = derive_capacity_rps(region, toy)
    # fast: 2 nodes at 50 ms => 40 rps; slow: 1 node at 400 ms => 2.5 rps.
    assert capacity == pytest.approx(42.5)
