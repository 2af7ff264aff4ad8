"""The door in front of both loops: refused, or finished — never in between.

``ServingSimulator.drain()`` validates once, whichever engine was asked
for: what the deployment cannot serve at all (a repeated id, an
unmeasured payload, a bad threshold, fast == accurate, an undeployed or
unrefillable pool, nothing submitted) raises a typed error before any
node, pool, clock or RNG state is written, and ``fallback_reason`` names
only a capability the columnar loop lacks — after which the event loop
finishes the run.  This module drives both engines explicitly, so it
shadows the suite-wide ``sim_engine`` matrix fixture to run once.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    MissingVersionError,
    PolicyConfigurationError,
    RequestValidationError,
    TierError,
)
from repro.core.policies import SequentialPolicy
from repro.service.control import ControlSpec, SLOSpec
from repro.service.request import ServiceRequest
from repro.service.simulation import (
    AutoscalerConfig,
    NodeCrash,
    PoissonArrivals,
    ServingSimulator,
    build_replay_cluster,
    columnar,
    scenario_measurements,
)
from repro.service.simulation.scenarios import build_simulator
from test_scenario_properties import _random_spec

ENGINES = ("columnar", "legacy")

#: Everything a columnar-requested drain may say on its way to the
#: event loop.  A reason outside this set is a refusal in disguise.
CAPABILITY_PREFIXES = (
    "fault schedule present (",
    "autoscaler attached",
    "control plane attached",
    "dead node in pool",
    "non-replay service version",
    "unsupported selection policy ",
)


@pytest.fixture
def sim_engine():
    """Shadow the engine matrix: this module runs both engines itself."""
    return None


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


def _seq(fast="fast", accurate="slow", threshold=0.6):
    """``seq[fast->accurate@threshold]``, past the constructor's guards."""
    policy = SequentialPolicy("fast", "slow", 0.6)
    policy.fast_version, policy.accurate_version = fast, accurate
    policy.confidence_threshold = threshold
    return EnsembleConfiguration("cfg", policy)


def _requests(toy, times):
    return [
        ServiceRequest(f"req_{i:04d}", toy.request_ids[i % len(toy.request_ids)])
        for i in range(len(times))
    ]


def _empty_pool(cluster, version):
    for node in cluster.load_balancer.nodes_of(version):
        cluster.kill_node(version, node, now=0.0)


def _state(sim):
    """Everything a refused drain must leave as it found it."""
    balancer = sim.cluster.load_balancer
    return {
        "nodes": [
            (
                node.node_id,
                node.busy_seconds,
                node.requests_served,
                node.busy_until,
                node.queue_depth,
            )
            for version in balancer.versions
            for node in balancer.nodes_of(version)
        ],
        "pools": sim.cluster.pool_sizes(),
        "cursor": dict(getattr(balancer._policy, "_cursor", {})),
        "now": sim.now,
        "rng": sim._rng.bit_generator.state,
        "remaining": sim._remaining,
        "submitted": len(sim._store.ids),
    }


# ----------------------------------------------------------------------
# refused at the door: same typed error on both engines, nothing written
# ----------------------------------------------------------------------
REFUSALS = {
    "degenerate": (
        PolicyConfigurationError, "version 'fast' as both fast and accurate"
    ),
    "undeployed": (MissingVersionError, "needs version 'ghost'"),
    "unmeasured": (
        RequestValidationError,
        "payload 'nope' does not name a measured request id",
    ),
    "emptied-pool": (MissingVersionError, "pool has no live node"),
    "threshold": (PolicyConfigurationError, r"must be in \[0, 1\], got 1.5"),
    "nothing-submitted": (ValueError, "at least one record"),
    "duplicate-id": (
        RequestValidationError, "duplicate request id 'req_0000'"
    ),
}


def _refused_simulator(case, engine, toy):
    configuration = {
        "degenerate": _seq(accurate="fast"),
        "undeployed": _seq(accurate="ghost"),
        "threshold": _seq(threshold=1.5),
    }.get(case, _seq())
    cluster = build_replay_cluster(toy, {"fast": 2, "slow": 2})
    sim = ServingSimulator(
        cluster, configuration=configuration, seed=3, engine=engine
    )
    times = np.cumsum(np.full(40, 0.1)).tolist()
    requests = _requests(toy, times)
    if case == "unmeasured":
        requests[17] = ServiceRequest("req_0017", "nope")
    elif case == "duplicate-id":
        # The first has long resolved when the second arrives.
        requests[39] = ServiceRequest("req_0000", toy.request_ids[0])
    elif case == "emptied-pool":
        _empty_pool(cluster, "slow")
    if case != "nothing-submitted":
        sim.submit_batch(requests, times)
    return sim


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", REFUSALS)
def test_refused_at_the_door(case, engine, toy):
    error, message = REFUSALS[case]
    sim = _refused_simulator(case, engine, toy)
    before = _state(sim)
    with pytest.raises(error, match=message) as excinfo:
        sim.drain()
    assert isinstance(excinfo.value, ValueError)
    assert case == "nothing-submitted" or isinstance(excinfo.value, TierError)
    assert sim.engine_used is None and sim.fallback_reason is None
    assert _state(sim) == before
    # Refused, not consumed: the same call is refused the same way.
    with pytest.raises(error, match=message):
        sim.drain()


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refusal_reads_the_same_on_both_engines(case, toy):
    messages = set()
    for engine in ENGINES:
        with pytest.raises(ValueError) as excinfo:
            _refused_simulator(case, engine, toy).drain()
        messages.add((type(excinfo.value), str(excinfo.value)))
    assert len(messages) == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_a_second_drain_is_refused_whichever_engine_ran_the_first(engine, toy):
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 2, "slow": 2}),
        configuration=_seq(),
        check_invariants=True,
        engine=engine,
    )
    report = sim.run(PoissonArrivals(8.0), 50, payload_ids=toy.request_ids)
    assert report.n_requests == 50 and sim.engine_used == engine
    with pytest.raises(ValueError, match="single-use"):
        sim.drain()
    with pytest.raises(ValueError, match="single-use"):
        sim.submit(ServiceRequest("late", toy.request_ids[0]))


# ----------------------------------------------------------------------
# a fallback means one thing: the other loop finishes this run
# ----------------------------------------------------------------------
class _Echo:
    """A live (non-replay) service version."""

    name = "fast"

    def handle(self, request_id, payload):
        from repro.service.node import VersionResult

        return VersionResult(request_id, "fast", payload, 0.0, 0.9, 0.05)


class _FirstNode:
    def select(self, version, nodes):
        return nodes[0]


def _capability_simulator(prefix, toy):
    cluster = build_replay_cluster(
        toy,
        {"fast": 2, "slow": 2},
        selection_policy=_FirstNode() if prefix.startswith("unsupp") else None,
    )
    fields = {}
    if prefix.startswith("fault"):
        fields["faults"] = (NodeCrash(at_s=1.0, version="slow", node_index=0),)
    elif prefix.startswith("autoscaler"):
        fields["autoscaler_config"] = AutoscalerConfig(min_nodes=1, max_nodes=3)
    elif prefix.startswith("control"):
        fields["control"] = ControlSpec(
            slos=(SLOSpec(name="latency", max_p95_latency_s=5.0),)
        )
    elif prefix.startswith("dead"):
        cluster.load_balancer.nodes_of("slow")[0].kill(now=0.0)
    elif prefix.startswith("non-replay"):
        for node in cluster.load_balancer.nodes_of("fast"):
            node.version = _Echo()
    return build_simulator(
        cluster,
        configuration=_seq(),
        measurements=toy,
        check_invariants=True,
        engine="columnar",
        **fields,
    )


@pytest.mark.parametrize("prefix", CAPABILITY_PREFIXES)
def test_each_capability_reason_ends_in_a_report(prefix, toy):
    sim = _capability_simulator(prefix, toy)
    report = sim.run(PoissonArrivals(6.0), 60, payload_ids=toy.request_ids)
    assert report.n_requests == 60
    assert report.engine_used == sim.engine_used == "legacy"
    assert report.fallback_reason == sim.fallback_reason
    assert sim.fallback_reason.startswith(prefix)


def test_the_fallback_reason_set_is_closed():
    """Every string ``columnar_ineligibility`` can return opens with one
    of the six capability prefixes — a seventh is a refusal that belongs
    at the door."""
    tree = ast.parse(inspect.getsource(columnar.columnar_ineligibility))
    leading = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Return):
            continue
        value = node.value
        if isinstance(value, ast.JoinedStr):
            value = value.values[0]
        assert isinstance(value, ast.Constant), ast.dump(node)
        if value.value is not None:
            leading.append(value.value)
    assert sorted(leading) == sorted(CAPABILITY_PREFIXES)
    # ... and the return value is the only channel that carries one.
    assert not hasattr(columnar, "ColumnarFallback")


# ----------------------------------------------------------------------
# property: a defective run is refused whole, a sound one drains whole
# ----------------------------------------------------------------------
DEFECTS = (
    None,
    "duplicate-id",
    "unmeasured",
    "degenerate",
    "undeployed",
    "emptied-pool",
    "threshold",
)


def _defective_run(seed, defect, engine, with_faults, toy):
    """One of ``test_scenario_properties``' specs with at most one defect
    injected; returns ``(simulator, state before drain, report or error)``."""
    spec = _random_spec(seed, with_faults=with_faults)
    configuration = {
        "degenerate": _seq(accurate="fast"),
        "undeployed": _seq(accurate="ghost"),
        "threshold": _seq(threshold=1.5),
    }.get(defect, spec.configuration)
    pools = dict(spec.pools)
    if configuration is not spec.configuration:
        pools = {"fast": 1, "slow": 1, **pools}
    cluster = build_replay_cluster(toy, pools)
    sim = build_simulator(
        cluster,
        configuration=configuration,
        measurements=toy,
        check_invariants=True,
        engine=engine,
        **spec.engine_fields(),
    )
    rng = np.random.default_rng([seed, 24])
    times = np.asarray(spec.arrivals.times(spec.n_requests, rng)).tolist()
    requests = _requests(toy, times)
    victim = int(rng.integers(1, len(requests)))
    if defect == "duplicate-id":
        requests[victim] = ServiceRequest("req_0000", requests[victim].payload)
    elif defect == "unmeasured":
        requests[victim] = ServiceRequest(requests[victim].request_id, "nope")
    elif defect == "emptied-pool":
        _empty_pool(cluster, configuration.versions[-1])
    sim.submit_batch(requests, times)
    before = _state(sim)
    try:
        outcome = sim.drain()
    except TierError as error:
        outcome = error
    return sim, before, outcome


def _assert_refused_or_drained(seed, defect, engine, with_faults, toy):
    sim, before, outcome = _defective_run(seed, defect, engine, with_faults, toy)
    if isinstance(outcome, TierError):
        assert defect is not None
        assert sim.engine_used is None and sim.fallback_reason is None
        assert _state(sim) == before
        return
    # Only an emptied pool can be survivable: a fault schedule resolves
    # what stays parked as failed, an autoscaler may add a node.
    assert defect in (None, "emptied-pool")
    assert outcome.n_requests == before["submitted"]
    assert outcome.fallback_reason == sim.fallback_reason
    if sim.fallback_reason is not None:
        assert engine == "columnar" and sim.engine_used == "legacy"
        assert sim.fallback_reason.startswith(CAPABILITY_PREFIXES)


@settings(max_examples=60, deadline=None)
@example(seed=3, defect="degenerate", engine="legacy", with_faults=False)
@example(seed=5, defect="emptied-pool", engine="columnar", with_faults=True)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    defect=st.sampled_from(DEFECTS),
    engine=st.sampled_from(ENGINES),
    with_faults=st.booleans(),
)
def test_a_run_is_refused_whole_or_drained_whole(
    seed, defect, engine, with_faults, toy
):
    """Never a bare ``KeyError`` / ``RuntimeError`` from halfway through:
    a ``TierError`` with nothing written, or a report that passed
    ``check_invariants`` conservation — and a ``fallback_reason`` only
    ever beside a report."""
    _assert_refused_or_drained(seed, defect, engine, with_faults, toy)


def test_the_property_catches_a_door_without_its_degenerate_arm(
    toy, monkeypatch
):
    """Teeth: let fast == accurate through the door and the scalar loop
    runs the whole workload, writes its nodes, and dies unresolved."""
    door = ServingSimulator._refuse_unservable
    let_through = []

    def blind(self, configurations, codes):
        let_through.append(self)
        return door(
            self,
            [
                _seq() if c.versions == ("fast", "fast") else c
                for c in configurations
            ],
            codes,
        )

    monkeypatch.setattr(ServingSimulator, "_refuse_unservable", blind)
    with pytest.raises(RuntimeError, match="requests unresolved"):
        _assert_refused_or_drained(3, "degenerate", "legacy", False, toy)
    (sim,) = let_through
    assert sim.engine_used == "legacy" and sim.now > 0.0
    assert any(busy > 0.0 for _, busy, *_ in _state(sim)["nodes"])
