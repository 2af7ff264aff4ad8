"""The tentpole guarantee: tracing is opt-in and digest-neutral.

With no collector attached the engines run the exact code paths they
ran before this subsystem existed; with one attached the *report*
digests (and control logs) must still be bit-identical — the trace
gets its own digest, pinned separately in ``test_trace_goldens.py``.

The fast tier checks three representative scenarios under both
engines; the slow tier sweeps every canonical and chaos scenario and
the multi-region runner.
"""

import pytest

from oracle.scalar import loop
from repro.obs import TraceCollector
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

FAST_SCENARIOS = ("baseline", "gray-failure", "node-crash")
ENGINES = ("legacy", "columnar")


def _spec(name):
    scenarios = dict(canonical_scenarios())
    scenarios.update(chaos_scenarios())
    return scenarios[name]


def _assert_neutral(name, toy, engine):
    spec = _spec(name)
    collector = TraceCollector()
    with loop(engine):
        off = run_scenario(spec, toy)
        on = run_scenario(spec, toy, trace=collector)
    assert on.digest() == off.digest(), (
        f"attaching a trace collector changed the report digest for "
        f"{name!r} under the {engine} engine"
    )
    assert len(on.control_log) == len(off.control_log)
    assert [
        (e.time_s, e.kind, e.detail) for e in on.control_log
    ] == [(e.time_s, e.kind, e.detail) for e in off.control_log]
    assert len(collector) == len(on.records)
    return collector


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_report_digest_is_trace_neutral(name, toy, engine):
    _assert_neutral(name, toy, engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_trace_digest_is_stable_across_runs(name, toy, engine):
    first = _assert_neutral(name, toy, engine)
    second = _assert_neutral(name, toy, engine)
    assert first.digest() == second.digest()


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_full_scenario_sweep_is_trace_neutral(toy, engine):
    scenarios = dict(canonical_scenarios())
    scenarios.update(chaos_scenarios())
    for name in sorted(scenarios):
        _assert_neutral(name, toy, engine)


@pytest.mark.parametrize("name", ("node-crash", "straggler", "gray-failure"))
def test_traced_window_fault_runs_keep_the_scalar_loop(name, toy):
    """Window faults run columnar, but a trace of one keeps the scalar
    loop (post-hoc reconstruction has no retry, migration or deflation
    spans) — and either way the report is the same."""
    spec = _spec(name)
    traced = run_scenario(spec, toy, trace=TraceCollector())
    untraced = run_scenario(spec, toy)
    assert (traced.engine_used, traced.fallback_reason) == (
        "legacy",
        "per-attempt trace of a fault schedule",
    )
    assert (untraced.engine_used, untraced.fallback_reason) == ("columnar", None)
    assert traced.digest() == untraced.digest()


def test_fault_scenario_traces_are_engine_invariant(toy):
    """A traced fault schedule keeps the scalar loop on the default path,
    so it records the same per-attempt trace stream as the oracle."""
    legacy = _assert_neutral("gray-failure", toy, "legacy")
    columnar = _assert_neutral("gray-failure", toy, "columnar")
    assert legacy.digest() == columnar.digest()


def test_multi_region_report_is_trace_neutral(toy):
    from repro.service.regions import (
        MultiRegionSpec,
        RegionSpec,
        run_multi_region,
    )
    from repro.service.simulation import (
        NodeCrash,
        PoissonArrivals,
        ScenarioSpec,
    )
    from repro.service.simulation.scenarios import _tiered_configuration

    def _scenario(name, **overrides):
        defaults = dict(
            name=name,
            arrivals=PoissonArrivals(4.0),
            n_requests=40,
            pools={"fast": 1, "slow": 1},
            configuration=_tiered_configuration(),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    crash = NodeCrash(at_s=2.0, version="fast", node_index=0, recover_at_s=6.0)
    spec = MultiRegionSpec(
        name="failover",
        regions=(
            RegionSpec(name="us", scenario=_scenario("s-us", faults=(crash,))),
            RegionSpec(name="eu", scenario=_scenario("s-eu")),
        ),
        link_latency_s=0.1,
        seed=21,
    )
    off = run_multi_region(spec, toy)
    sink = TraceCollector()
    on = run_multi_region(spec, toy, trace=sink)
    assert on.digest() == off.digest()
    assert len(sink) == 80

    # Parallel shards merge to the identical trace stream.
    parallel_sink = TraceCollector()
    run_multi_region(spec, toy, parallel=2, trace=parallel_sink)
    assert parallel_sink.digest() == sink.digest()

    # Failover traffic carries the hop span linking home and target.
    hops = [
        t
        for t in sink.traces
        if any(s.name == "failover-hop" for s in t.spans)
    ]
    assert hops, "crash scenario should fail traffic over"
    for trace in hops:
        hop = next(s for s in trace.spans if s.name == "failover-hop")
        assert hop.attrs["home"] == trace.root.attrs["home_region"]
        assert hop.attrs["target"] == trace.root.attrs["served_region"]
        assert trace.root.attrs["region"] == hop.attrs["target"]
