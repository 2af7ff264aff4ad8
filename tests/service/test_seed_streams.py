"""The seed-stream registry: spawn keys stay disjoint and in sync.

Determinism rests on every derived generator — engine, faults, storm
buckets, admission, region shard roots — opening a *distinct* RNG
stream.  These tests pin three things: the registry's constants match
the literals at the actual construction sites, the audit catches
collisions, and the streams existing single-region consumers open are
exactly the ones the registry enumerates (so the regions subsystem's
spawning cannot have changed them).
"""

import inspect
import re

import numpy as np
import pytest

from repro.service.simulation import (
    SeedStreamCollision,
    audit_seed_streams,
    canonical_scenarios,
    chaos_scenarios,
    spawn_region_seed,
    streams_for_spec,
)
from repro.service.simulation.seeds import (
    ADMISSION_STREAM,
    FAULT_STREAM,
    REGION_STREAM,
    STORM_STREAM,
    scenario_stream_keys,
)


class TestRegistryMatchesConstructionSites:
    """A drifted literal would silently fork a stream; pin the sync."""

    def _literals(self, module) -> set:
        source = inspect.getsource(module)
        return {
            int(match, 16)
            for match in re.findall(
                r"default_rng\(\[[^]]*?(0x[0-9A-Fa-f]+)", source
            )
        }

    def test_engine_literals(self):
        # The fault generator and the storm buckets are opened by the one
        # owner of completion failures, which both loops consult.
        from repro.service.simulation import engine, faults

        assert self._literals(engine) == set()
        assert self._literals(faults) == {FAULT_STREAM, STORM_STREAM}

    def test_admission_literal(self):
        from repro.service.control import plane

        assert self._literals(plane) == {ADMISSION_STREAM}

    def test_constants_are_pairwise_distinct(self):
        constants = (
            FAULT_STREAM, STORM_STREAM, ADMISSION_STREAM, REGION_STREAM
        )
        assert len(set(constants)) == len(constants)


class TestAudit:
    def test_passes_and_returns_mapping(self):
        streams = scenario_stream_keys(
            seed=7, n_storms=2, has_probabilistic_faults=True,
            has_control=True,
        )
        assert audit_seed_streams(streams) == streams
        assert streams["engine"] == (7,)
        assert streams["faults"] == (7, FAULT_STREAM)
        assert streams["storm[1]"] == (7, STORM_STREAM, 1)
        assert streams["admission"] == (7, ADMISSION_STREAM)

    def test_collision_raises_naming_both_consumers(self):
        with pytest.raises(SeedStreamCollision, match="alice.*bob"):
            audit_seed_streams([("alice", (7, 1)), ("bob", (7, 1))])

    def test_accepts_iterables_and_normalises_ints(self):
        with pytest.raises(SeedStreamCollision):
            audit_seed_streams([("a", (np.int64(7),)), ("b", (7,))])


class TestSingleRegionConsumers:
    """Every shipped scenario's stream family is audit-clean and exactly
    what the registry predicts — the regression guard for PR-era RNG
    consumers now that region shards spawn their own families."""

    @pytest.mark.parametrize(
        "name", sorted(canonical_scenarios()) + sorted(chaos_scenarios())
    )
    def test_scenario_streams_are_disjoint(self, name):
        scenarios = {**canonical_scenarios(), **chaos_scenarios()}
        spec = scenarios[name]
        streams = audit_seed_streams(streams_for_spec(spec))
        assert streams["engine"] == (spec.seed,)
        # The engine stream is always a bare seed; every derived stream
        # carries a registered discriminator constant.
        for key in streams.values():
            if len(key) > 1:
                assert key[1] in (
                    FAULT_STREAM, STORM_STREAM, ADMISSION_STREAM
                )

    def test_storm_scenario_opens_bucket_streams(self):
        spec = chaos_scenarios()["retry-storm"]
        streams = streams_for_spec(spec)
        assert "faults" in streams
        assert any(name.startswith("storm[") for name in streams)


class TestRegionSpawning:
    def test_spawned_seeds_are_unique_across_seeds_and_indices(self):
        spawned = {
            spawn_region_seed(seed, index)
            for seed in range(40)
            for index in range(25)
        }
        assert len(spawned) == 40 * 25

    def test_spawned_seed_is_stable(self):
        assert spawn_region_seed(31, 0) == spawn_region_seed(31, 0)
        assert spawn_region_seed(31, 0) != spawn_region_seed(31, 1)

    def test_multi_region_stream_union_is_disjoint(self):
        from repro.service.regions import (
            multi_region_streams,
            region_scenarios,
        )

        for spec in region_scenarios().values():
            streams = audit_seed_streams(multi_region_streams(spec))
            assert streams["root"] == (spec.seed,)
            for i, region in enumerate(spec.regions):
                assert streams[f"{region.name}/engine"] == (
                    spec.shard_seed(i),
                )
