"""Region-aware control surfaces: SLO replay, decisions, engine fallbacks,
the empty-shard edge and the gateway's multi-region entry point."""

import dataclasses
import hashlib

import pytest

from oracle.scalar import default_loop
from repro.obs import TraceCollector
from repro.contract import REGION_SLO_TICK_S, REGION_SLO_WINDOW_S
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.regions import (
    MultiRegionSpec,
    RegionSpec,
    region_scenarios,
    run_multi_region,
    shard,
)
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
    ScenarioSpec,
    TransientFaults,
)
from repro.service.simulation.scenarios import _tiered_configuration


def _scenario(name, **overrides):
    defaults = dict(
        name=name,
        arrivals=PoissonArrivals(4.0),
        n_requests=50,
        pools={"fast": 1, "slow": 1},
        configuration=_tiered_configuration(),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


@pytest.fixture(scope="module")
def brownout(toy):
    return run_multi_region(
        region_scenarios()["partitioned-brownout"], toy
    )


class TestRegionSLOReplay:
    def test_entries_name_the_region(self, brownout):
        entries = brownout.shard("ap-south").slo_log
        assert entries, "the brownout must trip its region SLOs"
        for entry in entries:
            assert entry.region == "ap-south"
            assert entry.kind in ("region-slo", "region-decision")
            assert "[ap-south]" in entry.detail
        assert all(not s.slo_log for s in brownout.shards
                   if s.region != "ap-south")

    def test_breach_emits_a_region_decision(self, brownout):
        decisions = [
            e
            for e in brownout.shard("ap-south").slo_log
            if e.kind == "region-decision"
        ]
        assert decisions, "a BREACH must produce an actionable advisory"
        for decision in decisions:
            assert " shed ap-south: " in decision.detail or (
                " adapt ap-south: " in decision.detail
            )

    def test_monitors_tick_every_contract_tick(self, toy, monkeypatch):
        """A shard evaluates its region SLOs over a ``REGION_SLO_WINDOW_S``
        window at every multiple of ``REGION_SLO_TICK_S`` up to its last
        row, then once more at the next one."""
        ticks = []
        evaluate = shard._RegionSLOReplay._evaluate

        def spy(replay, now):
            assert replay._hub.window_s == REGION_SLO_WINDOW_S
            ticks.append(now)
            evaluate(replay, now)

        monkeypatch.setattr(shard._RegionSLOReplay, "_evaluate", spy)
        run_multi_region(region_scenarios()["partitioned-brownout"], toy)
        assert len(ticks) > 10
        expected = [REGION_SLO_TICK_S * k for k in range(1, len(ticks) + 1)]
        assert ticks == pytest.approx(expected)

    def test_slo_entries_enter_the_digest(self, toy):
        spec = region_scenarios()["partitioned-brownout"]
        muted_regions = tuple(
            dataclasses.replace(r, slos=()) if r.name == "ap-south" else r
            for r in spec.regions
        )
        muted = dataclasses.replace(spec, regions=muted_regions)
        loud = run_multi_region(spec, toy)
        quiet = run_multi_region(muted, toy)
        # Identical routing and shard behaviour; only the SLO replay
        # differs — and the digest must see it.
        assert [s.digest for s in loud.shards] == [
            s.digest for s in quiet.shards
        ]
        assert loud.digest() != quiet.digest()
        assert quiet.summary()["n_region_slo_events"] == 0.0


#: The flaky outage's digest as its ``TransientFaults`` window alone kept
#: eu-west on the legacy loop, and then a trace recorder did: draining
#: it columnar, traced, must not move a bit.
_FLAKY_OUTAGE_DIGEST = (
    "c2ecc9a4ee02eba2961fa7c655e7497e20ebc7337095dc1d3e0b11a7fcd8f998"
)


class TestEngineSurface:
    """Every shard drains columnar on the default path, traced or not."""

    def test_traced_faulted_region_runs_columnar(self, toy):
        spec = region_scenarios()["regional-outage"]
        outage = spec.regions[1]
        flaky = TransientFaults(start_s=2.0, end_s=8.0, failure_probability=0.3)
        spec = dataclasses.replace(
            spec,
            regions=(
                spec.regions[0],
                dataclasses.replace(
                    outage,
                    scenario=dataclasses.replace(
                        outage.scenario,
                        faults=(*outage.scenario.faults, flaky),
                    ),
                ),
            ),
        )
        with default_loop():
            report = run_multi_region(spec, toy, trace=TraceCollector())
        assert all(s.engine_used == "columnar" for s in report.shards)
        assert all(s.fallback_reason is None for s in report.shards)
        assert "n_engine_fallbacks" not in report.summary()
        assert [s.summary["n_scaling_events"] for s in report.shards] == [0, 0]
        assert report.digest() == _FLAKY_OUTAGE_DIGEST

    def test_crashing_region_runs_columnar(self, toy):
        """A node crash is a window fault the columnar loop serves."""
        with default_loop():
            report = run_multi_region(region_scenarios()["regional-outage"], toy)
        assert all(s.engine_used == "columnar" for s in report.shards)
        assert all(s.fallback_reason is None for s in report.shards)

    def test_healthy_regions_run_columnar(self, toy):
        with default_loop():
            report = run_multi_region(region_scenarios()["tri-steady"], toy)
        assert all(s.engine_used == "columnar" for s in report.shards)
        assert all(s.fallback_reason is None for s in report.shards)


class TestEmptyShard:
    def test_fully_failed_over_region_yields_empty_shard(self, toy):
        dead = NodeCrash(at_s=0.0, version="fast", node_index=0)
        spec = MultiRegionSpec(
            name="evacuated",
            regions=(
                RegionSpec(
                    name="us", scenario=_scenario("s-us", faults=(dead,))
                ),
                RegionSpec(name="eu", scenario=_scenario("s-eu")),
            ),
            seed=41,
        )
        report = run_multi_region(spec, toy)
        us = report.shard("us")
        assert us.n_submitted == 0
        assert us.n_outgoing == us.n_assigned
        expected = hashlib.sha256(b"empty-shard:us").hexdigest()
        assert us.digest == expected
        assert us.summary == {}
        report.verify_conservation()
        eu = report.shard("eu")
        assert eu.n_incoming == us.n_outgoing
        assert report.digest() == run_multi_region(spec, toy).digest()


def _region_session_digest(spec, region, toy, **kwargs):
    """Digest of one gateway load test against ``from_region``'s backend."""
    scenario = (
        spec.region(region) if isinstance(region, str) else spec.regions[region]
    ).scenario
    gateway = TierGateway(
        SimulatedBackend.from_region(spec, region, toy, **kwargs),
        configuration=scenario.configuration,
    )
    return gateway.run_load(
        scenario.arrivals,
        scenario.n_requests,
        tolerance=scenario.tolerance,
        objective=scenario.objective,
        payload_ids=toy.request_ids,
    ).digest()


class TestGatewayFromRegion:
    def test_gateway_session_matches_region_shard(self, toy):
        spec = region_scenarios()["tri-steady"]
        report = run_multi_region(spec, toy)
        digest = _region_session_digest(
            spec, "eu-west", toy, check_invariants=True
        )
        assert digest == report.shard("eu-west").digest

    def test_region_resolves_by_name_or_index(self, toy):
        # Name and index select the same spawned shard seed: the two
        # sessions digest alike, and unlike a neighbouring region's.
        spec = region_scenarios()["tri-steady"]
        by_name = _region_session_digest(spec, "ap-south", toy)
        assert by_name == _region_session_digest(spec, 2, toy)
        assert by_name != _region_session_digest(spec, 1, toy)
        with pytest.raises(KeyError, match="unknown region"):
            SimulatedBackend.from_region(spec, "mars", toy)
