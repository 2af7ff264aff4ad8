"""The tentpole guarantee: tracing is opt-in and digest-neutral.

With no collector attached the engines run the exact code paths they
ran before this subsystem existed; with one attached the *report*
digests (and control logs) must still be bit-identical — the trace
gets its own digest, pinned separately in ``test_trace_goldens.py``.

The fast tier checks three representative scenarios under both
engines; the slow tier sweeps every canonical and chaos scenario and
the multi-region runner.

The *trace* is engine-independent too.  A run with a fault schedule or a
control plane is traced per attempt, and the default drain (the
columnar loop feeding the recorder) must record what the scalar oracle
records: every canonical and chaos scenario, open- and closed-loop, and
members of the fuzzed, window-fault and control families of
``tests/service/test_engine_differential.py``.  Any other run is traced
coarsely, and its trees are the ones reconstructed from either loop's
report.
"""

from dataclasses import replace

import pytest

from oracle.scalar import default_loop, loop, scalar_loop
from repro.obs import TraceCollector
from repro.obs.reconstruct import traces_from_report
from repro.service.control import default_control_spec
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)
from service.test_engine_differential import (
    _control_simulator,
    _random_spec,
    _window_simulator,
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
def test_traced_window_fault_runs_drain_columnar(name, toy):
    """Attaching a trace does not choose the engine: a traced window-fault
    run drains columnar, with the untraced run's report."""
    spec = _spec(name)
    traced = run_scenario(spec, toy, trace=TraceCollector())
    untraced = run_scenario(spec, toy)
    assert (traced.engine_used, traced.fallback_reason) == ("columnar", None)
    assert (untraced.engine_used, untraced.fallback_reason) == ("columnar", None)
    assert traced.digest() == untraced.digest()


def _trees(collector):
    """Every tree as its dict, node ids renamed in order of first use:
    ids count process-wide, so two runs name the same node apart."""
    names = {}
    trees = [trace.to_dict() for trace in collector.traces]
    for tree in trees:
        for span in tree["spans"]:
            node = span["attrs"].get("node")
            if node is not None:
                span["attrs"]["node"] = names.setdefault(node, f"n{len(names)}")
    return trees


def _assert_traces_engine_invariant(run, per_attempt):
    """``run(trace)`` drained traced on the default path and under the
    scalar oracle: the same report digest, trace digest, run events and
    trees, span by span.  A run traced coarsely (``per_attempt`` false)
    is held to the trees reconstructed from the oracle's report instead:
    the scalar loop records per attempt whatever the run."""
    collector, oracle = TraceCollector(), TraceCollector()
    with default_loop():
        report = run(collector)
    with scalar_loop():
        reference = run(oracle)
    assert (report.engine_used, report.fallback_reason) == ("columnar", None)
    assert report.digest() == reference.digest()
    if not per_attempt:
        oracle = TraceCollector()
        for trace in traces_from_report(reference):
            oracle.add_trace(trace)
    assert collector.run_events == oracle.run_events
    assert len(collector) == len(oracle) == report.n_requests
    for tree, expected in zip(_trees(collector), _trees(oracle)):
        assert tree == expected, tree["request_id"]
    assert collector.digest() == oracle.digest()


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("name", sorted({**canonical_scenarios(), **chaos_scenarios()}))
def test_fault_scenario_traces_are_engine_invariant(name, closed, toy):
    """Every canonical and chaos scenario, open-loop and under the default
    control plane, traces alike on both loops."""
    spec = _spec(name)
    if closed:
        spec = replace(spec, control=default_control_spec())
    _assert_traces_engine_invariant(
        lambda trace: run_scenario(spec, toy, trace=trace),
        bool(spec.faults) or spec.control is not None,
    )


#: Seeds of each family: three in the fast tier, more in the slow one.
FAMILY_SEEDS = [
    pytest.param(seed, marks=pytest.mark.slow) if seed >= 3 else seed
    for seed in range(12)
]


@pytest.mark.parametrize("seed", FAMILY_SEEDS)
@pytest.mark.parametrize("family", ["fuzzed", "window", "control"])
def test_family_traces_are_engine_invariant(family, seed, toy):
    """The differential families' members trace alike on both loops:
    random specs, window faults under retries, random control planes."""
    if family == "fuzzed":
        spec = _random_spec(seed)
        _assert_traces_engine_invariant(
            lambda trace: run_scenario(
                spec, toy, check_invariants=True, trace=trace
            ),
            bool(spec.faults) or spec.control is not None,
        )
        return
    build = (_window_simulator if family == "window" else _control_simulator)(
        seed, toy
    )
    sim, _ = build()
    _assert_traces_engine_invariant(
        lambda trace: build(trace)[1](),
        bool(sim._faults) or sim.control is not None,
    )


def _failover_spec():
    """Two regions, one crashing: failover traffic and a traced fault."""
    from repro.service.regions import MultiRegionSpec, RegionSpec
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
    return MultiRegionSpec(
        name="failover",
        regions=(
            RegionSpec(name="us", scenario=_scenario("s-us", faults=(crash,))),
            RegionSpec(name="eu", scenario=_scenario("s-eu")),
        ),
        link_latency_s=0.1,
        seed=21,
    )


def test_multi_region_report_is_trace_neutral(toy):
    from repro.service.regions import run_multi_region

    spec = _failover_spec()
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


def test_a_merge_derives_no_span_id(toy, monkeypatch):
    """Shards hand back sealed trees, and merging them derives no id
    again: the sink takes the trees as the shards built them."""
    import repro.obs.trace as trace_module
    from repro.service.regions import run_multi_region, runner

    derive, merge = trace_module.span_id_for, runner._merge_traces
    derived = []

    def counted_merge(results, sink):
        with monkeypatch.context() as patch:
            patch.setattr(
                trace_module,
                "span_id_for",
                lambda *args: derived.append(args) or derive(*args),
            )
            patch.setattr(
                trace_module.Trace,
                "from_dict",
                classmethod(lambda cls, payload: derived.append(payload)),
            )
            merge(results, sink)

    monkeypatch.setattr(runner, "_merge_traces", counted_merge)
    sink = TraceCollector()
    run_multi_region(_failover_spec(), toy, trace=sink)
    assert len(sink) == 80
    assert derived == []
