"""The door in front of both loops: refused, or finished — never in between.

``ServingSimulator.drain()`` validates once, whichever loop then runs:
what the deployment cannot serve at all (a repeated id, an unmeasured
payload, a bad threshold, fast == accurate, an undeployed or unrefillable
pool, a pool holding a dead node or a non-replay version, nothing
submitted) raises a typed error before any node, pool,
clock or RNG state is written; anything else drains columnar — traced or
not — and ends in a report.  The ``"legacy"`` legs drain inside
``tests/oracle/scalar.py``'s ``scalar_loop()``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle.scalar import REASON, loop
from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    MissingVersionError,
    PolicyConfigurationError,
    RequestValidationError,
    TierError,
)
from repro.core.policies import SequentialPolicy
from repro.obs import TraceCollector
from repro.service.control import ControlSpec, SLOSpec
from repro.service.request import ServiceRequest
from repro.service.simulation import (
    NodeCrash,
    NodeSlowdown,
    PoissonArrivals,
    ServingSimulator,
    build_replay_cluster,
    scenario_measurements,
)
from repro.service.simulation.scenarios import build_simulator
from test_scenario_properties import _random_spec

ENGINES = ("columnar", "legacy")


@pytest.fixture
def sim_loop():
    """Shadow the loop matrix: this module picks both loops itself."""
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
        "rng": sim._rng.bit_generator.state,
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
    # No fault refills an empty pool: a crash there is a logged no-op, so
    # even one with a replacement scheduled leaves the pool empty.
    "emptied-pool-slowdown": (MissingVersionError, "pool has no live node"),
    "emptied-pool-crash": (MissingVersionError, "pool has no live node"),
    "emptied-pool-recovering": (MissingVersionError, "pool has no live node"),
    "threshold": (PolicyConfigurationError, r"must be in \[0, 1\], got 1.5"),
    "nothing-submitted": (ValueError, "at least one record"),
    "duplicate-id": (
        RequestValidationError, "duplicate request id 'req_0000'"
    ),
    # Either loop replays measurements over pools whose nodes all live.
    "dead-node": (
        MissingVersionError, "node 0 of version 'slow'.s pool is dead"
    ),
    "non-replay": (
        MissingVersionError,
        "node 1 of version 'fast'.s pool runs _Echo, not a "
        "MeasurementReplayVersion",
    ),
}


class _Echo:
    """A live (non-replay) service version."""

    name = "fast"

    def handle(self, request_id, payload):
        from repro.service.node import VersionResult

        return VersionResult(request_id, "fast", payload, 0.0, 0.9, 0.05)


FAULTS = {
    "emptied-pool-slowdown": (NodeSlowdown(at_s=1.0, version="fast"),),
    "emptied-pool-crash": (NodeCrash(at_s=1.0, version="fast"),),
    "emptied-pool-recovering": (
        NodeCrash(at_s=1.0, version="slow", recover_at_s=2.0),
    ),
}


def _refused_simulator(case, toy):
    configuration = {
        "degenerate": _seq(accurate="fast"),
        "undeployed": _seq(accurate="ghost"),
        "threshold": _seq(threshold=1.5),
    }.get(case, _seq())
    cluster = build_replay_cluster(toy, {"fast": 2, "slow": 2})
    sim = ServingSimulator(
        cluster,
        configuration=configuration,
        seed=3,
        faults=FAULTS.get(case, ()),
    )
    times = np.cumsum(np.full(40, 0.1)).tolist()
    requests = _requests(toy, times)
    if case == "unmeasured":
        requests[17] = ServiceRequest("req_0017", "nope")
    elif case == "duplicate-id":
        # The first has long resolved when the second arrives.
        requests[39] = ServiceRequest("req_0000", toy.request_ids[0])
    elif case.startswith("emptied-pool"):
        _empty_pool(cluster, "slow")
    elif case == "dead-node":
        # Killed without ClusterDeployment.kill_node: still in the pool.
        cluster.load_balancer.nodes_of("slow")[0].kill(now=0.0)
    elif case == "non-replay":
        cluster.load_balancer.nodes_of("fast")[1].version = _Echo()
    if case != "nothing-submitted":
        sim.submit_batch(requests, times)
    return sim


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", REFUSALS)
def test_refused_at_the_door(case, engine, toy):
    error, message = REFUSALS[case]
    sim = _refused_simulator(case, toy)
    before = _state(sim)
    with loop(engine), pytest.raises(error, match=message) as excinfo:
        sim.drain()
    assert isinstance(excinfo.value, ValueError)
    assert case == "nothing-submitted" or isinstance(excinfo.value, TierError)
    assert sim.engine_used is None
    assert _state(sim) == before
    # Refused, not consumed: the same call is refused the same way.
    with loop(engine), pytest.raises(error, match=message):
        sim.drain()


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refusal_reads_the_same_on_both_engines(case, toy):
    messages = set()
    for engine in ENGINES:
        with loop(engine), pytest.raises(ValueError) as excinfo:
            _refused_simulator(case, toy).drain()
        messages.add((type(excinfo.value), str(excinfo.value)))
    assert len(messages) == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_a_second_drain_is_refused_whichever_engine_ran_the_first(engine, toy):
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 2, "slow": 2}),
        configuration=_seq(),
        check_invariants=True,
    )
    with loop(engine):
        report = sim.run(PoissonArrivals(8.0), 50, payload_ids=toy.request_ids)
    assert report.n_requests == 50 and sim.engine_used == engine
    with pytest.raises(ValueError, match="single-use"):
        sim.drain()
    with pytest.raises(ValueError, match="single-use"):
        sim.submit(ServiceRequest("late", toy.request_ids[0]))


# ----------------------------------------------------------------------
# a trace recorder does not choose the loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", ["fault schedule", "control plane"])
def test_a_traced_run_drains_columnar(source, toy):
    """A traced fault schedule or control plane — the runs a trace once
    moved to the scalar loop — drains columnar, with the untraced run's
    report, and ends in a report."""
    slo = SLOSpec(name="latency", max_p95_latency_s=5.0)
    extra = (
        {"faults": (NodeCrash(at_s=1.0, version="slow", node_index=0),)}
        if source == "fault schedule"
        else {"control": ControlSpec(slos=(slo,))}
    )
    digests = set()
    for trace in (None, TraceCollector()):
        sim = build_simulator(
            build_replay_cluster(toy, {"fast": 2, "slow": 2}),
            configuration=_seq(),
            measurements=toy,
            check_invariants=True,
            trace=trace,
            **extra,
        )
        report = sim.run(PoissonArrivals(6.0), 60, payload_ids=toy.request_ids)
        assert report.n_requests == 60
        assert report.engine_used == sim.engine_used == "columnar"
        assert report.fallback_reason is None
        digests.add(report.digest())
    assert len(digests) == 1


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
        with loop(engine):
            outcome = sim.drain()
    except TierError as error:
        outcome = error
    return sim, before, outcome


def _assert_refused_or_drained(seed, defect, engine, with_faults, toy):
    sim, before, outcome = _defective_run(seed, defect, engine, with_faults, toy)
    if isinstance(outcome, TierError):
        assert defect is not None
        assert sim.engine_used is None
        assert _state(sim) == before
        return
    # Only an emptied pool can be survivable: an autoscaler may add a node.
    assert defect in (None, "emptied-pool")
    assert outcome.n_requests == before["submitted"]
    assert (sim.engine_used, outcome.fallback_reason) == (
        ("legacy", REASON) if engine == "legacy" else ("columnar", None)
    )


@settings(max_examples=60, deadline=None)
@example(seed=3, defect="degenerate", engine="legacy", with_faults=False)
@example(seed=5, defect="emptied-pool", engine="columnar", with_faults=True)
# An autoscaled run whose pool starts empty drains columnar: the door
# gathers the rows its refills replay.
@example(seed=0, defect="emptied-pool", engine="columnar", with_faults=False)
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
    ``check_invariants`` conservation, from the loop asked for."""
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
    # The scalar loop's clock ran; a loop that dies leaves no engine named.
    assert sim.engine_used is None and sim.oracle_loop._loop.now > 0.0
    assert any(busy > 0.0 for _, busy, *_ in _state(sim)["nodes"])
