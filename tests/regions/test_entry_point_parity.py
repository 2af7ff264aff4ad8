"""One assembly line: every entry point inflates the same run.

``run_scenario``, a ``TierGateway`` session over
``SimulatedBackend.from_scenario`` and a region shard all build their
engine through ``build_simulator``; with a trace sink attached they must
agree on the report digest *and* on what was traced.  The engine comes
from the suite's ``sim_engine`` matrix (legacy in the fast tier, both
in the full tier).
"""

import pytest

from repro.obs import TraceCollector
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.regions import (
    MultiRegionSpec,
    RegionSpec,
    run_multi_region,
)
from repro.service.simulation import (
    PoissonArrivals,
    ServingSimulator,
    build_replay_cluster,
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

SPECS = {**canonical_scenarios(), **chaos_scenarios()}


def _gateway_load(backend, scenario, toy):
    gateway = TierGateway(
        backend, configuration=scenario.configuration, router=scenario.router
    )
    return gateway.run_load(
        scenario.arrivals,
        scenario.n_requests,
        tolerance=scenario.tolerance,
        objective=scenario.objective,
        payload_ids=toy.request_ids,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_scenario_gateway_and_shard_agree_with_tracing_on(toy, name):
    spec = SPECS[name]
    direct_traces = TraceCollector()
    direct = run_scenario(spec, toy, trace=direct_traces)
    assert len(direct_traces) == spec.n_requests

    session_traces = TraceCollector()
    session = _gateway_load(
        SimulatedBackend.from_scenario(spec, toy, trace=session_traces),
        spec,
        toy,
    )
    assert session.digest() == direct.digest()
    assert session_traces.digest() == direct_traces.digest()
    assert session.engine_used == direct.engine_used
    assert session.fallback_reason == direct.fallback_reason

    if name == "thundering-herd":
        # A herd transforms run()-generated arrivals; a shard submits
        # explicitly, so the region layer refuses the spec outright.
        with pytest.raises(ValueError, match="ThunderingHerd"):
            RegionSpec(name="us", scenario=spec)
        return
    solo = MultiRegionSpec(
        name="solo",
        regions=(RegionSpec(name="us", scenario=spec),),
        seed=spec.seed,
    )
    shard_traces = TraceCollector()
    shard = run_multi_region(solo, toy, trace=shard_traces).shards[0]
    plain = run_scenario(solo.equivalent_scenario(0), toy)
    assert shard.digest == plain.digest()
    assert shard.engine_used == plain.engine_used
    assert len(shard_traces) == spec.n_requests
    # Merged roots carry a region stamp, so the shard's trace stream is
    # compared against itself across execution modes only.
    parallel_traces = TraceCollector()
    run_multi_region(solo, toy, trace=parallel_traces, parallel=2)
    assert parallel_traces.digest() == shard_traces.digest()


def test_from_region_records_into_the_given_sink(toy):
    spec = SPECS["node-crash"]
    multi = MultiRegionSpec(
        name="pair",
        regions=(
            RegionSpec(name="us", scenario=spec),
            RegionSpec(name="eu", scenario=SPECS["baseline"]),
        ),
        seed=5,
    )
    scenario = multi.equivalent_scenario(0)
    via_region = TraceCollector()
    report = _gateway_load(
        SimulatedBackend.from_region(multi, "us", toy, trace=via_region),
        scenario,
        toy,
    )
    via_scenario = TraceCollector()
    assert run_scenario(scenario, toy, trace=via_scenario).digest() == (
        report.digest()
    )
    assert len(via_region) == scenario.n_requests
    assert via_region.digest() == via_scenario.digest()


@pytest.mark.parametrize("engine", ("legacy", "columnar"))
def test_run_after_drain_is_refused_up_front(toy, engine):
    spec = SPECS["baseline"]
    simulator = ServingSimulator(
        build_replay_cluster(toy, dict(spec.pools)),
        configuration=spec.configuration,
        seed=spec.seed,
        engine=engine,
    )
    report = simulator.run(
        PoissonArrivals(5.0), 10, payload_ids=toy.request_ids
    )
    assert report.engine_used == engine

    class _NeverSampled(PoissonArrivals):
        def times(self, n_requests, rng):
            raise AssertionError("a drained simulator sampled arrivals")

    with pytest.raises(ValueError, match="single-use"):
        simulator.run(_NeverSampled(5.0), 10, payload_ids=toy.request_ids)
