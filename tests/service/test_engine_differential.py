"""Dual-engine differential harness: columnar vs the legacy oracle.

The columnar engine's whole correctness argument is *differential*: the
legacy scalar engine is retained verbatim as the oracle, and every
behaviour the report digest observes must be bit-identical between the
two.  This file is that argument, run continuously:

1. **Canonical scenarios** — all six degraded modes, in both fast mode
   and full invariant-checking mode, digest-identical across engines.
2. **Golden traces** — the columnar engine reproduces the PR 3 pinned
   digests directly from the checked-in golden files.
3. **Fuzzed scenario space** — :data:`N_SPECS` seeded random specs over
   arrivals x pools x policies x batching x autoscaling x faults x
   retries x control (enabled and disabled), each run under both
   engines with the invariant checker on (conservation laws) and
   compared digest-for-digest plus control-log-for-control-log.
4. **Eligibility** — every run drains columnar (``engine_used`` says
   so), a traced fault schedule included, with the oracle's report; the
   fast tier's fuzzed specs turn on every event source the draw offers.
5. **Routed traffic** — :data:`N_ROUTED` seeded sessions in which a
   ``TierRouter`` serves every request by its own annotation (a random
   mix of all five configuration shapes, one-by-one submissions) run
   columnar and digest-identical to the oracle; one unservable routed
   configuration is refused at the door on both loops; a pre-pass that
   swaps two groups' thresholds is caught.
6. **Window faults** — :data:`N_WINDOW` seeded specs drawing crashes
   (whole pools emptied, with and without recovery), stragglers, gray
   nodes and cold-start waves under retry policies and budgets run
   columnar and match the oracle's digest, fault stream, every record
   field and the cluster's books; pinned specs cover the failed-attempt
   branches a draw rarely reaches, and two crash-path mutants are caught.
7. **Control ticks** — :data:`N_CONTROL` seeded random control planes
   (SLOs, every admission policy, the adaptor, gray detection, any tick
   cadence) on healthy and crashing specs run columnar and match the
   oracle's digest, control and fault streams, records and books, with
   conservation; two source-level mutants of the control source are
   caught.
8. **Completion faults** — :data:`N_COMPLETION` seeded specs mixing
   transient windows, retry storms, cascade policies and thundering
   herds with window faults, retry budgets, batching, routed sessions
   and control planes run columnar and match the oracle's digest, fault
   and control streams, records and books; a pinned spec ties a herd's
   release to a recovery and a window's opening, and two source-level
   mutants of the completion-fault path are caught.
9. **Autoscaling** — :data:`N_AUTOSCALE` seeded specs grow pools on
   queue depth, utilization and dead pools and shrink idle ones, mixed
   with crashes that empty a pool, cold-start waves, retries, batching,
   routed sessions and control planes; they run columnar and match the
   oracle's digest, fault and control streams, records, scaling events,
   final pool sizes and live and retired books.  A pinned spec ties a
   scale-up's completions to both ticks, and four mutants of the
   autoscaling path (one of them in the owner both loops call) are
   caught.
10. **Edge cases** — zero-request drains and single-request runs behave
    identically at the engine boundary.

Digest mismatches do not fail as two opaque hashes: the assertion
helper asks ``tests/oracle/divergence.py``'s ``first_divergence``, which
diffs the two reports' ``RecordColumns`` column by column and names the
first diverging row, field and both values (then lengths, pool sizes,
the fault and control streams).

Seeds below :data:`FAST_SPECS` run in the fast tier; the rest carry the
``slow`` marker.  The oracle half of each comparison drains inside
``tests/oracle/scalar.py``'s ``scalar_loop()``; the other half takes the
default path, the columnar loop.
"""

import dataclasses
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracle.divergence import first_divergence
from oracle.golden import read_golden
from oracle.report_reference import report_digest_v1
from oracle.scalar import loop, scalar_loop
from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import MissingVersionError, PolicyConfigurationError
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.obs import TraceCollector
from repro.service.request import Objective, ServiceRequest
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlSpec,
    GrayDetectionSpec,
    SLOSpec,
    SLOState,
    default_control_spec,
)
from repro.service.simulation import (
    Autoscaler,
    AutoscalerConfig,
    BatchingConfig,
    BurstyArrivals,
    CascadePolicy,
    ColdStartWave,
    DiurnalArrivals,
    GrayFailure,
    InvariantViolation,
    NodeCrash,
    NodeSlowdown,
    PoissonArrivals,
    RetryPolicy,
    RetryStorm,
    ScenarioSpec,
    ServingSimulator,
    SpikeArrivals,
    ThunderingHerd,
    TraceArrivals,
    TransientFaults,
    build_replay_cluster,
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
    scenario_measurements,
)
from repro.service.simulation.scenarios import build_simulator

N_SPECS = 50
FAST_SPECS = 20

#: The routed family (router-driven sessions); seeds below
#: :data:`FAST_ROUTED` run in the fast tier.
N_ROUTED = 24
FAST_ROUTED = 10

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def sim_loop():
    """Shadow the loop matrix: this module picks both loops itself."""
    return None


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


# ----------------------------------------------------------------------
# assertion helpers (satellite: structured divergence instead of hashes)
# ----------------------------------------------------------------------
def assert_reports_identical(legacy, columnar):
    """Digest equality, explained: on mismatch, name the first diverging
    row, field and both values instead of printing two opaque hashes."""
    if legacy.digest() == columnar.digest():
        return
    divergence = first_divergence(legacy, columnar)
    if divergence is None:
        pytest.fail(
            "digests differ but no field-level divergence found — "
            "digest and first_divergence disagree on what they cover"
        )
    pytest.fail(divergence.describe("legacy", "columnar"))


def control_log_digest(report):
    """Standalone digest of just the control-plane action stream."""
    h = hashlib.sha256()
    for entry in report.control_log:
        h.update(
            f"{entry.time_s:.12e}|{entry.kind}|{entry.detail}\n".encode()
        )
    return h.hexdigest()


def run_both(spec, toy, *, check_invariants=True):
    def run():
        return run_scenario(spec, toy, check_invariants=check_invariants)

    with scalar_loop():
        legacy = run()
    return legacy, run()


# ----------------------------------------------------------------------
# canonical scenarios and golden traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("check_invariants", [False, True], ids=["fast", "checked"])
@pytest.mark.parametrize("name", sorted(canonical_scenarios()))
def test_canonical_scenarios_digest_identical(name, check_invariants, toy):
    spec = canonical_scenarios()[name]
    legacy, columnar = run_both(spec, toy, check_invariants=check_invariants)
    assert_reports_identical(legacy, columnar)
    assert control_log_digest(legacy) == control_log_digest(columnar)


@pytest.mark.parametrize("name", ("baseline", "node-crash", "gray-failure", "flaky"))
def test_columnar_reproduces_golden_traces(name, toy):
    """The columnar loop matches the pinned digests directly: the
    healthy, window-fault and transient-window (``flaky``) goldens."""
    golden = read_golden(GOLDEN_DIR / f"{name}.json")
    spec = {**canonical_scenarios(), **chaos_scenarios()}[name]
    report = run_scenario(spec, toy, check_invariants=True)
    assert report.engine_used == "columnar"
    assert report.digest() == golden["digest"], (
        f"columnar run of {name!r} no longer matches its golden trace"
    )


# ----------------------------------------------------------------------
# fuzzed scenario space
# ----------------------------------------------------------------------
def _random_policy(rng):
    kind = rng.integers(0, 5)
    threshold = float(rng.choice([0.4, 0.5, 0.6, 0.7]))
    if kind == 0:
        return SingleVersionPolicy("fast")
    if kind == 1:
        return SingleVersionPolicy("slow")
    if kind == 2:
        return SequentialPolicy("fast", "slow", threshold)
    if kind == 3:
        return ConcurrentPolicy("fast", "slow", threshold)
    return EarlyTerminationPolicy("fast", "slow", threshold)


def _random_arrivals(rng):
    kind = rng.integers(0, 4)
    rate = float(rng.uniform(1.0, 6.0))
    if kind == 0:
        return PoissonArrivals(rate)
    if kind == 1:
        return BurstyArrivals(rate, rate * 5.0, mean_calm_s=4.0, mean_burst_s=1.0)
    if kind == 2:
        return SpikeArrivals(
            rate,
            spike_start_s=float(rng.uniform(1.0, 5.0)),
            spike_duration_s=float(rng.uniform(1.0, 4.0)),
            spike_multiplier=float(rng.uniform(2.0, 6.0)),
        )
    return DiurnalArrivals(
        rate,
        amplitude=float(rng.uniform(0.2, 0.8)),
        period_s=float(rng.uniform(10.0, 40.0)),
    )


def _random_faults(rng, versions):
    faults = []
    for _ in range(int(rng.integers(1, 4))):
        version = str(rng.choice(versions))
        kind = rng.integers(0, 3)
        at = float(rng.uniform(0.5, 8.0))
        if kind == 0:
            faults.append(
                NodeCrash(
                    at_s=at,
                    version=version,
                    node_index=int(rng.integers(0, 3)),
                    recover_at_s=at + float(rng.uniform(1.0, 6.0))
                    if rng.uniform() < 0.7
                    else None,
                )
            )
        elif kind == 1:
            faults.append(
                NodeSlowdown(
                    at_s=at,
                    version=version,
                    node_index=int(rng.integers(0, 3)),
                    speed_factor=float(rng.uniform(0.1, 0.8)),
                    until_s=at + float(rng.uniform(1.0, 8.0))
                    if rng.uniform() < 0.7
                    else None,
                )
            )
        else:
            faults.append(
                TransientFaults(
                    start_s=at,
                    end_s=at + float(rng.uniform(1.0, 8.0)),
                    failure_probability=float(rng.uniform(0.1, 0.9)),
                    versions=(version,) if rng.uniform() < 0.7 else None,
                )
            )
    return tuple(faults)


def _random_control(rng):
    """A closed-loop spec that actually acts under load: a tight latency
    SLO plus either probabilistic shedding or forced degradation."""
    return ControlSpec(
        window_s=float(rng.uniform(3.0, 8.0)),
        tick_interval_s=float(rng.uniform(0.25, 0.75)),
        slos=(
            SLOSpec(
                name="latency",
                max_p95_latency_s=float(rng.uniform(0.5, 2.0)),
                breach_after=int(rng.integers(1, 3)),
                clear_after=int(rng.integers(2, 6)),
            ),
        ),
        admission=AdmissionSpec(policy="probabilistic", shed_probability=0.8)
        if rng.uniform() < 0.5
        else AdmissionSpec(policy="degrade"),
    )


def _random_spec(seed):
    rng = np.random.default_rng([seed, 20260808])
    policy = _random_policy(rng)
    versions = tuple({v: None for v in policy.versions})
    pools = {v: int(rng.integers(1, 4)) for v in versions}
    with_faults = rng.uniform() < 0.4
    with_control = rng.uniform() < 0.35
    spec = ScenarioSpec(
        name=f"diff-{seed}",
        arrivals=_random_arrivals(rng),
        n_requests=int(rng.integers(30, 70)),
        pools=pools,
        configuration=EnsembleConfiguration(f"cfg_{seed}", policy),
        batching=BatchingConfig(
            max_batch_size=int(rng.integers(1, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if rng.uniform() < 0.6
        else None,
        autoscaler_config=AutoscalerConfig(
            min_nodes=1,
            max_nodes=int(rng.integers(3, 6)),
            scale_up_queue_depth=float(rng.uniform(1.0, 4.0)),
            evaluation_interval_s=float(rng.uniform(0.25, 1.0)),
            cooldown_s=float(rng.uniform(0.0, 1.0)),
        )
        if rng.uniform() < 0.3
        else None,
        retry=RetryPolicy(
            max_attempts=int(rng.integers(2, 4)),
            backoff_s=float(rng.uniform(0.0, 0.1)),
        )
        if with_faults
        else RetryPolicy(),
        faults=_random_faults(rng, versions) if with_faults else (),
        control=_random_control(rng) if with_control else None,
        seed=seed,
    )
    return spec


def _marked_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow) if seed >= FAST_SPECS else seed
        for seed in range(N_SPECS)
    ]


@pytest.mark.parametrize("seed", _marked_seeds())
def test_fuzzed_specs_digest_identical(seed, toy):
    """Both engines agree — digests, conservation laws, control logs —
    across the randomized scenario space, the columnar loop unchecked
    (its fault-free deliveries) and checked (its stepwise machine)."""
    spec = _random_spec(seed)
    with scalar_loop():
        legacy = run_scenario(spec, toy, check_invariants=True)
    assert legacy.n_requests == spec.n_requests
    for check_invariants in (False, True):
        columnar = run_scenario(spec, toy, check_invariants=check_invariants)
        assert_reports_identical(legacy, columnar)
        assert control_log_digest(legacy) == control_log_digest(columnar)
        assert columnar.n_requests == spec.n_requests


# ----------------------------------------------------------------------
# eligibility: the fast path really runs, traced or not
# ----------------------------------------------------------------------
def _direct_sim(toy, policy, *, batching=True, nodes=2):
    cluster = build_replay_cluster(toy, {v: nodes for v in {*policy.versions}})
    return ServingSimulator(
        cluster,
        configuration=EnsembleConfiguration("elig", policy),
        batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01)
        if batching
        else None,
        seed=3,
    )


@pytest.mark.parametrize(
    "policy",
    [
        SingleVersionPolicy("fast"),
        SequentialPolicy("fast", "slow", 0.6),
        ConcurrentPolicy("fast", "slow", 0.6),
        EarlyTerminationPolicy("fast", "slow", 0.6),
    ],
    # "default": the within-pool rule every shape runs under.
    ids=["default-single", "default-seq", "default-conc", "default-et"],
)
def test_supported_shapes_run_columnar(policy, toy):
    """Every policy shape the fast path claims is exercised end to end
    without falling back — the differential suite is really testing
    columnar code, not a silent legacy fallback."""
    sim = _direct_sim(toy, policy)
    report = sim.run(PoissonArrivals(4.0), 60, payload_ids=toy.request_ids)
    assert sim.engine_used == "columnar"
    assert report.fallback_reason is None
    assert report.n_requests == 60


@pytest.mark.parametrize(
    "policy",
    [
        SingleVersionPolicy("fast"),
        SequentialPolicy("fast", "slow", 0.6),
        ConcurrentPolicy("fast", "slow", 0.6),
        EarlyTerminationPolicy("fast", "slow", 0.6),
    ],
    ids=["single", "seq", "conc", "et"],
)
@pytest.mark.parametrize("nodes", [1, 3], ids=["one-node", "three-node"])
def test_every_pool_size_scans_like_the_scalar_loop(policy, nodes, toy):
    """Two-node pools take the inlined scan; a one-node and an n-node
    pool take the columnar loop's other two node-selection closures.
    Under load (queues form, so the scan's order and tie-break decide)
    each drains columnar and leaves the scalar loop's report and books."""

    def drain():
        sim = _direct_sim(toy, policy, nodes=nodes)
        report = sim.run(PoissonArrivals(20.0), 80, payload_ids=toy.request_ids)
        return sim, report

    with scalar_loop():
        legacy_sim, legacy = drain()
    sim, columnar = drain()
    assert sim.engine_used == "columnar"
    assert columnar.fallback_reason is None
    assert_reports_identical(legacy, columnar)
    assert _cluster_books(legacy_sim.cluster) == _cluster_books(sim.cluster)


def test_traced_fault_runs_drain_columnar(toy):
    """A trace recorder does not choose the engine: a traced fault
    schedule drains columnar, with the report of a pure legacy run."""
    spec = canonical_scenarios()["node-crash"]
    cluster = build_replay_cluster(toy, dict(spec.pools))
    sim = ServingSimulator(
        cluster,
        configuration=spec.configuration,
        faults=spec.faults,
        retry=spec.retry,
        trace=TraceCollector(),
        seed=spec.seed,
    )
    report = sim.run(spec.arrivals, spec.n_requests, payload_ids=toy.request_ids)
    assert sim.engine_used == report.engine_used == "columnar"
    assert report.fallback_reason is None
    with scalar_loop():
        legacy = run_scenario(spec, toy)
    assert_reports_identical(legacy, report)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("name", sorted(chaos_scenarios()))
def test_chaos_specs_pick_their_loop_with_named_reason(name, closed, toy):
    """Every chaos scenario, open- or closed-loop, runs columnar — every
    fault type, the autoscaler cold-start's wave rides on, and a control
    plane are event sources of the columnar loop — and the default run
    is bit-identical to a pure legacy run."""
    spec = chaos_scenarios()[name]
    if closed:
        spec = dataclasses.replace(spec, control=default_control_spec())
    sim = build_simulator(
        build_replay_cluster(toy, dict(spec.pools)),
        configuration=spec.configuration,
        measurements=toy,
        check_invariants=True,
        **spec.engine_fields(),
    )
    report = sim.run(
        spec.arrivals,
        spec.n_requests,
        tolerance=spec.tolerance,
        objective=spec.objective,
        payload_ids=toy.request_ids,
    )
    assert sim.engine_used == "columnar" and report.fallback_reason is None
    with scalar_loop():
        legacy = run_scenario(spec, toy, check_invariants=True)
    assert_reports_identical(legacy, report)
    assert control_log_digest(legacy) == control_log_digest(report)


@pytest.mark.parametrize("name", sorted(chaos_scenarios()))
def test_chaos_scenarios_digest_identical_across_engines(name, toy):
    """The default path on a chaos spec — the columnar loop — matches
    the legacy oracle digest-for-digest."""
    spec = chaos_scenarios()[name]
    legacy, columnar = run_both(spec, toy, check_invariants=True)
    assert_reports_identical(legacy, columnar)
    assert control_log_digest(legacy) == control_log_digest(columnar)


#: The event sources of the columnar loop the fuzzed specs draw.
_FUZZED_SOURCES = frozenset(
    {
        "NodeCrash",
        "NodeSlowdown",
        "TransientFaults",
        "retry",
        "autoscaler",
        "batching",
        "control",
    }
)


def _event_sources(spec):
    """The event sources of the columnar loop a spec turns on."""
    sources = {type(fault).__name__ for fault in spec.faults}
    if spec.retry.max_attempts > 1:
        sources.add("retry")
    if spec.autoscaler_config is not None:
        sources.add("autoscaler")
    if spec.batching is not None and spec.batching.max_batch_size > 1:
        sources.add("batching")
    if spec.control is not None:
        sources.add("control")
    return sources


def test_fuzzed_space_exercises_every_event_source():
    """Between them, the fast tier's fuzzed specs turn on every event
    source of the columnar loop the draw offers — each fault type,
    retries, the autoscaler, batching and a control plane — or the
    differential sweep leaves one of them untested."""
    seen = set().union(*(_event_sources(_random_spec(s)) for s in range(FAST_SPECS)))
    assert seen == _FUZZED_SOURCES, sorted(_FUZZED_SOURCES - seen)


# ----------------------------------------------------------------------
# routed traffic: the router is request state, not a fallback reason
# ----------------------------------------------------------------------
_ROUTED_TOLERANCES = (0.01, 0.05, 0.10)


def _random_router(rng):
    """Three tiers x two objectives (plus a baseline each), every cell a
    random draw over the five configuration shapes and four thresholds."""
    tables = {}
    for objective in Objective:
        cells = [
            EnsembleConfiguration(
                f"{objective.value}@{label}", _random_policy(rng)
            )
            for label in ("base", *_ROUTED_TOLERANCES)
        ]
        tables[objective] = RoutingRuleTable(
            objective=objective,
            baseline=cells[0],
            rules=dict(zip(_ROUTED_TOLERANCES, cells[1:])),
        )
    return TierRouter(tables)


def _routed_rng(seed):
    return np.random.default_rng([seed, 20260929])


def _routed_session(
    seed, toy, *, router=None, tolerances=None, check_invariants=True
):
    """One router-driven session: requests submitted one by one with
    random annotations, payloads and arrival times.  The seed turns
    batching on and off in runs of four."""
    rng = _routed_rng(seed)
    if router is None:
        router = _random_router(rng)
    sim = ServingSimulator(
        build_replay_cluster(
            toy,
            {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))},
        ),
        router=router,
        batching=BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if (seed // 4) % 2
        else None,
        check_invariants=check_invariants,
        seed=seed,
    )
    n = int(rng.integers(40, 90))
    times = np.cumsum(rng.exponential(1.0 / rng.uniform(2.0, 8.0), n))
    rng.shuffle(times)  # submission order is not arrival order
    # 0.0 and 0.03 fall between the rules: baseline and the 1 % tier.
    tolerances = tolerances or (0.0, 0.03, *_ROUTED_TOLERANCES)
    objectives = tuple(Objective)
    for i in range(n):
        sim.submit(
            ServiceRequest(
                request_id=f"routed_{i:04d}",
                payload=str(rng.choice(toy.request_ids)),
                tolerance=float(rng.choice(tolerances)),
                objective=objectives[int(rng.integers(0, len(objectives)))],
            ),
            at_time=float(times[i]),
        )
    return sim, n


def _routed_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow) if seed >= FAST_ROUTED else seed
        for seed in range(N_ROUTED)
    ]


@pytest.mark.parametrize("seed", _routed_seeds())
def test_routed_sessions_digest_identical(seed, toy):
    # Unchecked, a routed session takes deliver(); checked, the stepwise
    # machine: both match the oracle.
    legacy_sim, n = _routed_session(seed, toy)
    with scalar_loop():
        legacy = legacy_sim.drain()
    for check_invariants in (False, True):
        sim, _ = _routed_session(seed, toy, check_invariants=check_invariants)
        columnar = sim.drain()
        assert sim.engine_used == "columnar"
        assert columnar.fallback_reason is None
        assert columnar.engine_used == "columnar"
        assert_reports_identical(legacy, columnar)
        assert legacy.n_requests == columnar.n_requests == n
        assert legacy.total_node_seconds == columnar.total_node_seconds


def test_routed_family_mixes_shapes_within_a_session():
    """The family is not five fixed-configuration suites in disguise:
    its fast tier routes to every shape, and most sessions mix pairs
    (a ``single(slow)`` next to a ``fast -> slow`` ensemble)."""
    kinds, mixed = set(), 0
    for seed in range(FAST_ROUTED):
        router = _random_router(_routed_rng(seed))
        cells = [
            cell
            for objective in router.objectives
            for cell in (
                router.table_for(objective).baseline,
                *router.table_for(objective).rules.values(),
            )
        ]
        kinds |= {(cell.kind, cell.versions) for cell in cells}
        mixed += len({cell.versions for cell in cells}) >= 3
    assert {kind for kind, _ in kinds} == {"single", "seq", "conc", "et"}
    assert {("single", ("fast",)), ("single", ("slow",))} <= kinds
    assert mixed >= FAST_ROUTED // 2


def _swap_two_thresholds(configurations):
    """The first two two-version groups with different thresholds, each
    rebuilt with the other's threshold."""
    two = [
        (i, c) for i, c in enumerate(configurations) if c.kind != "single"
    ]
    for a, (i, left) in enumerate(two):
        for j, right in two[a + 1:]:
            t_left = left.policy.confidence_threshold
            t_right = right.policy.confidence_threshold
            if t_left != t_right:
                swapped = list(configurations)
                for index, cell, threshold in (
                    (i, left, t_right),
                    (j, right, t_left),
                ):
                    policy = cell.policy
                    swapped[index] = EnsembleConfiguration(
                        cell.config_id,
                        type(policy)(
                            policy.fast_version,
                            policy.accurate_version,
                            threshold,
                        ),
                    )
                return swapped
    return configurations


def test_routed_family_catches_a_wrong_pre_pass(monkeypatch, toy):
    """The family has teeth: a pre-pass that hands two groups each
    other's threshold (every conservation law still holds) is caught by
    the digests of most fast-tier sessions."""
    real = ServingSimulator._route_submissions

    def swapped(self):
        configurations, codes = real(self)
        return _swap_two_thresholds(configurations), codes

    with scalar_loop():
        legacy = [
            _routed_session(seed, toy)[0].drain().digest()
            for seed in range(FAST_ROUTED)
        ]
    monkeypatch.setattr(ServingSimulator, "_route_submissions", swapped)
    caught = 0
    for seed in range(FAST_ROUTED):
        sim, _ = _routed_session(seed, toy)
        report = sim.drain()
        assert sim.engine_used == "columnar"
        caught += report.digest() != legacy[seed]
    assert caught >= FAST_ROUTED // 2, (
        f"swapped thresholds changed only {caught}/{FAST_ROUTED} digests"
    )


def _broken_router(broken):
    """Healthy tiers plus one cell (the 10 % response-time tier) that
    neither loop can serve."""
    if broken == "degenerate":
        policy = SequentialPolicy("fast", "slow", 0.6)
        policy.accurate_version = "fast"  # past the constructor's guard
    else:
        policy = SequentialPolicy("fast", "ghost", 0.6)
    healthy = EnsembleConfiguration("ok", SequentialPolicy("fast", "slow", 0.6))
    return TierRouter(
        {
            objective: RoutingRuleTable(
                objective=objective,
                baseline=EnsembleConfiguration(
                    "base", SingleVersionPolicy("slow")
                ),
                rules={
                    0.01: healthy,
                    0.10: EnsembleConfiguration("broken", policy)
                    if objective is Objective.RESPONSE_TIME
                    else healthy,
                },
            )
            for objective in Objective
        }
    )


@pytest.mark.parametrize(
    "broken, error",
    [
        ("degenerate", PolicyConfigurationError),
        ("undeployed", MissingVersionError),
    ],
    ids=["degenerate", "undeployed"],
)
def test_one_ineligible_routed_configuration_falls_back(broken, error, toy):
    """Servability is per routed group: a session that reaches the one
    broken cell is refused with the same typed error on both engines,
    before either loop starts (a refusal, not a fallback); the same
    router with traffic that never reaches the cell runs columnar."""
    messages = set()
    for engine in ("columnar", "legacy"):
        sim, _ = _routed_session(3, toy, router=_broken_router(broken))
        with loop(engine), pytest.raises(error) as excinfo:
            sim.drain()
        messages.add(str(excinfo.value))
        assert sim.engine_used is None
    assert len(messages) == 1

    sim, _ = _routed_session(
        3, toy, router=_broken_router(broken), tolerances=(0.0, 0.01, 0.05)
    )
    report = sim.drain()
    assert sim.engine_used == "columnar" and report.fallback_reason is None
    legacy_sim, _ = _routed_session(
        3, toy, router=_broken_router(broken), tolerances=(0.0, 0.01, 0.05)
    )
    with scalar_loop():
        legacy = legacy_sim.drain()
    assert_reports_identical(legacy, report)


def test_routed_bulk_workload_digest_identical(toy):
    """``run()`` under a router is one annotation for the whole
    workload; explicit submissions beside it keep their own.  The
    columnar loop runs unchecked and checked."""
    reports = {}
    for engine, check_invariants in (
        ("legacy", True), ("columnar", False), ("columnar", True)
    ):
        router = _random_router(np.random.default_rng(11))
        sim = ServingSimulator(
            build_replay_cluster(toy, {"fast": 2, "slow": 2}),
            router=router,
            batching=BatchingConfig(max_batch_size=3, max_wait_s=0.02),
            check_invariants=check_invariants,
            seed=4,
        )
        for i, tolerance in enumerate((0.0, 0.01, 0.10, 0.05)):
            sim.submit(
                ServiceRequest(
                    f"early_{i}", toy.request_ids[i], tolerance=tolerance
                ),
                at_time=0.3 * i,
            )
        with loop(engine):
            reports[engine, check_invariants] = sim.run(
                PoissonArrivals(5.0),
                60,
                tolerance=0.05,
                objective=Objective.COST,
                payload_ids=toy.request_ids,
            )
        assert sim.engine_used == engine
    legacy = reports.pop(("legacy", True))
    for columnar in reports.values():
        assert_reports_identical(legacy, columnar)
        assert columnar.n_requests == 64


class _CountingRouter(TierRouter):
    """A router that counts its routing decisions."""

    def __init__(self, tables):
        super().__init__(tables)
        self.routed = 0

    def route(self, tolerance, objective):
        self.routed += 1
        return super().route(tolerance, objective)


def test_pre_pass_routes_each_annotation_once(toy):
    """Either engine's drain routes each distinct (tolerance,
    objective) once; the legacy loop reads the pre-pass per arrival."""
    for engine in ("legacy", "columnar"):
        base = _random_router(np.random.default_rng(7))
        router = _CountingRouter(
            {o: base.table_for(o) for o in base.objectives}
        )
        sim, n = _routed_session(7, toy, router=router)
        store = sim._store
        annotations = set(zip(store.tolerances, store.objectives))
        with loop(engine):
            sim.drain()
        assert sim.engine_used == engine
        assert router.routed == len(annotations) < n


def _response_time_only_router():
    return TierRouter(
        {
            Objective.RESPONSE_TIME: RoutingRuleTable(
                objective=Objective.RESPONSE_TIME,
                baseline=EnsembleConfiguration(
                    "base", SingleVersionPolicy("slow")
                ),
                rules={
                    0.05: EnsembleConfiguration(
                        "seq", SequentialPolicy("fast", "slow", 0.6)
                    )
                },
            )
        }
    )


def _unroutable(kind, request_id, payload):
    if kind == "objective":  # no table for it: KeyError
        return ServiceRequest(request_id, payload, objective=Objective.COST)
    request = ServiceRequest(request_id, payload)
    if kind == "header":  # not an objective at all: ValueError
        object.__setattr__(request, "objective", "cheapest")
    else:  # past ServiceRequest's own guard: ValueError
        object.__setattr__(request, "tolerance", -0.25)
    return request


@pytest.mark.parametrize(
    "bad",
    [("objective",), ("header",), ("tolerance",), ("objective", "tolerance")],
    ids="+".join,
)
def test_unroutable_request_fails_early_like_the_oracle(bad, toy):
    """A request the router cannot serve raises, from drain(), what the
    legacy loop's first failing arrival raises — under the columnar
    engine before any node or simulator state is written."""
    raised = {}
    for engine in ("legacy", "columnar"):
        cluster = build_replay_cluster(toy, {"fast": 2, "slow": 2})
        sim = ServingSimulator(cluster, router=_response_time_only_router())
        payloads = toy.request_ids
        for i in range(6):
            sim.submit(
                ServiceRequest(f"ok_{i}", payloads[i], tolerance=0.05),
                at_time=0.1 * i,
            )
        # Submitted in this order, arriving in the reverse one: the
        # *arrival* order decides which failure the oracle meets first.
        for k, kind in enumerate(bad):
            sim.submit(
                _unroutable(kind, f"bad_{k}", payloads[10 + k]),
                at_time=0.35 - 0.1 * k,
            )
        with loop(engine), pytest.raises((KeyError, ValueError)) as excinfo:
            sim.drain()
        raised[engine] = type(excinfo.value)
        if engine == "columnar":
            assert sim.engine_used is None and not sim._drained
            assert len(sim._store.ids) == 6 + len(bad)
            for version in cluster.versions:
                for node in cluster.load_balancer.nodes_of(version):
                    assert node.busy_seconds == 0.0
                    assert node.requests_served == 0
                    assert node.busy_until == 0.0
                    assert node.queue_depth == 0
    assert raised["columnar"] is raised["legacy"]
    assert raised["legacy"] is (
        KeyError if bad == ("objective",) else ValueError
    )


# ----------------------------------------------------------------------
# window faults: crash / slowdown / gray / cold-start sources on the
# columnar loop, with the whole failed-attempt path behind a crash
# ----------------------------------------------------------------------
#: The window-fault family; seeds below :data:`FAST_WINDOW` run in the
#: fast tier.
N_WINDOW = 60
FAST_WINDOW = 20


def _random_window_faults(rng, pools, span):
    """1-4 window faults inside the arrival ``span``; one seed in three
    crashes a whole pool (every node at one instant, the replacements
    coming back or not)."""
    faults = []
    if rng.uniform() < 1 / 3:
        version = str(rng.choice(sorted(pools)))
        at = float(rng.uniform(0.1, 0.8)) * span
        back = at + float(rng.uniform(1.0, 6.0)) if rng.uniform() < 0.6 else None
        faults += [
            NodeCrash(at_s=at, version=version, node_index=0, recover_at_s=back)
            for _ in range(pools[version])
        ]
    for _ in range(int(rng.integers(1, 5)) - min(len(faults), 3)):
        version = str(rng.choice(sorted(pools)))
        at = float(rng.uniform(0.05, 1.0)) * span
        until = at + float(rng.uniform(1.0, 8.0)) if rng.uniform() < 0.7 else None
        index = int(rng.integers(0, 3))
        kind = int(rng.integers(-1, 4))  # crashes twice as likely
        if kind <= 0:
            faults.append(
                NodeCrash(
                    at_s=at, version=version, node_index=index, recover_at_s=until
                )
            )
        elif kind == 1:
            faults.append(
                NodeSlowdown(
                    at_s=at,
                    version=version,
                    node_index=index,
                    speed_factor=float(rng.uniform(0.1, 0.8)),
                    until_s=until,
                )
            )
        elif kind == 2:
            faults.append(
                GrayFailure(
                    at_s=at,
                    version=version,
                    node_index=index,
                    speed_factor=float(rng.uniform(0.2, 1.0)),
                    confidence_factor=float(rng.uniform(0.3, 1.0)),
                    until_s=until,
                )
            )
        else:
            faults.append(
                ColdStartWave(
                    warmup_s=float(rng.uniform(0.5, 5.0)),
                    speed_factor=float(rng.uniform(0.2, 1.0)),
                    confidence_factor=float(rng.choice([1.0, 0.6, 0.85])),
                    version=version if rng.uniform() < 0.5 else None,
                )
            )
    return tuple(faults)


def _random_retry(rng):
    """Up to three attempts with backoff; budgets on half the seeds."""
    budgets = {}
    if rng.uniform() < 0.5:
        budgets = {
            "retry_budget": int(rng.integers(0, 3)),
            "max_inflight_retries": int(rng.integers(0, 4)),
            "max_total_retries": int(rng.integers(0, 12)),
        }
    return RetryPolicy(
        max_attempts=int(rng.integers(1, 4)),
        backoff_s=float(rng.uniform(0.0, 0.2)),
        backoff_factor=float(rng.uniform(1.0, 3.0)),
        **budgets,
    )


def _window_simulator(seed, toy):
    """One spec of the family, built twice over (the oracle needs its own
    cluster): a fixed configuration over ``run()``'s arrivals, or — one
    seed in four — a routed session of one-by-one submissions."""
    rng = np.random.default_rng([seed, 20261015])
    routed = seed % 4 == 3
    router = _random_router(rng) if routed else None
    policy = None if routed else _random_policy(rng)
    pools = {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))}
    rng.integers(0, 4)  # a retired draw, kept so later draws stay put
    batching = (
        BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if rng.uniform() < 0.5
        else None
    )
    rate = float(rng.uniform(3.0, 14.0))
    n = int(rng.integers(40, 90))
    faults = _random_window_faults(rng, pools, n / rate)
    retry = _random_retry(rng)
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    requests = [
        ServiceRequest(
            request_id=f"w_{i:04d}",
            payload=str(rng.choice(toy.request_ids)),
            tolerance=float(rng.choice((0.0, 0.01, 0.05, 0.10))),
            objective=tuple(Objective)[int(rng.integers(0, 2))],
        )
        for i in range(n)
    ]

    def build(trace=None):
        sim = ServingSimulator(
            build_replay_cluster(toy, pools),
            router=router,
            configuration=None
            if routed
            else EnsembleConfiguration(f"w_{seed}", policy),
            batching=batching,
            faults=faults,
            retry=retry,
            check_invariants=True,
            trace=trace,
            seed=seed,
        )
        if routed:
            for request, at_time in zip(requests, times.tolist()):
                sim.submit(request, at_time=at_time)
            return sim, sim.drain
        return sim, lambda: sim.run(
            PoissonArrivals(rate), n, payload_ids=toy.request_ids
        )

    return build


def fault_log_digest(report):
    """Standalone digest of the fault stream (node ids are process-local)."""
    h = hashlib.sha256()
    for entry in report.fault_log:
        h.update(f"{entry.time_s!r}|{entry.kind}|{entry.version}|{entry.detail}\n".encode())
    return h.hexdigest()


def _cluster_books(cluster):
    """How the run left the cluster: per-version books (the retired
    nodes' on their own), then every live node's counters, speed and
    queue."""
    balancer = cluster.load_balancer
    return (
        cluster.total_busy_seconds(),
        cluster.iaas_spend(),
        dict(cluster._retired_busy),
        dict(cluster._retired_iaas),
        cluster.pool_sizes(),
        [
            (
                version,
                node.busy_seconds,
                node.requests_served,
                node.busy_until,
                node.effective_speed_factor,
                node.alive,
                node.queue_depth,
            )
            for version in balancer.versions
            for node in balancer.nodes_of(version)
        ],
    )


def _run_window_pair(seed, toy, build=None):
    """``(oracle report, oracle books, columnar report, columnar books)``
    of family member ``seed``, or of the simulator ``build`` makes."""
    build = build or _window_simulator(seed, toy)
    legacy_sim, legacy_drain = build()
    with scalar_loop():
        legacy = legacy_drain()
    sim, drain = build()
    columnar = drain()
    assert sim.engine_used == "columnar" and columnar.fallback_reason is None
    return (
        legacy,
        _cluster_books(legacy_sim.cluster),
        columnar,
        _cluster_books(sim.cluster),
    )


def _window_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow) if seed >= FAST_WINDOW else seed
        for seed in range(N_WINDOW)
    ]


@pytest.mark.parametrize("seed", _window_seeds())
def test_window_fault_family_digest_identical(seed, toy):
    """Crashes (a pool emptied, with and without recovery), stragglers,
    gray nodes and cold-start waves under retries and their budgets run
    columnar and match the scalar oracle: digests, the fault and control
    streams, every record field (deflated confidences included), and the
    cluster the run leaves behind."""
    legacy, legacy_books, columnar, columnar_books = _run_window_pair(seed, toy)
    assert_reports_identical(legacy, columnar)
    assert fault_log_digest(legacy) == fault_log_digest(columnar)
    assert control_log_digest(legacy) == control_log_digest(columnar)
    assert list(legacy.records) == list(columnar.records)
    assert legacy_books == columnar_books


def test_window_fault_family_reaches_the_failed_attempt_path(toy):
    """The fast tier exercises what a crash pulls in, not just crashes:
    every onset and restore, retries driven and denied, and requests
    that fail terminally or stay unserved."""
    seen = set()
    for seed in range(FAST_WINDOW):
        report = _window_simulator(seed, toy)()[1]()
        seen |= {entry.kind for entry in report.fault_log}
        seen |= {"retried"} if report.total_retries else set()
        seen |= {"denied"} if report.n_retry_denied else set()
        seen |= {"failed"} if report.n_failed else set()
    assert {
        "crash", "recover", "slowdown", "restore", "gray", "gray-restore",
        "cold-start", "warmed", "retried", "denied", "failed",
    } <= seen, sorted(seen)


def _pinned_spec(
    name, policy, faults, retry=RetryPolicy(), rate=2.0, *,
    pools=(("fast", 1), ("slow", 1)), n_requests=30, seed=3,
):
    return ScenarioSpec(
        name=name,
        arrivals=PoissonArrivals(rate),
        n_requests=n_requests,
        pools=dict(pools),
        configuration=EnsembleConfiguration(name, policy),
        faults=faults,
        retry=retry,
        seed=seed,
    )


#: Branches of the failed-attempt path a random draw rarely reaches,
#: pinned: a slowed fast leg lets the accurate one land (or die) first.
_PINNED_BRANCHES = {
    # The accurate attempt dies while the fast one is in flight: the fast
    # confidence gate decides (answer or fail) when it lands.
    "accurate-failed": _pinned_spec(
        "accurate-failed",
        ConcurrentPolicy("fast", "slow", 0.6),
        (
            NodeSlowdown(at_s=0.0, version="fast", speed_factor=0.02),
            NodeCrash(at_s=3.0, version="slow", recover_at_s=4.0),
        ),
    ),
    # The fast attempt dies after the accurate one answered: the accurate
    # result answers alone, billed alone.
    "accurate-only": _pinned_spec(
        "accurate-only",
        ConcurrentPolicy("fast", "slow", 0.6),
        (
            NodeSlowdown(at_s=0.0, version="fast", speed_factor=0.05),
            NodeCrash(at_s=3.0, version="fast", recover_at_s=4.0),
        ),
    ),
    # Early termination cancels accurate jobs parked behind a dead pool.
    "cancel-parked": _pinned_spec(
        "cancel-parked",
        EarlyTerminationPolicy("fast", "slow", 0.6),
        (NodeCrash(at_s=0.0, version="slow", recover_at_s=6.0),),
    ),
    # ... and an accurate retry still waiting out its backoff.
    "cancel-backoff": _pinned_spec(
        "cancel-backoff",
        EarlyTerminationPolicy("fast", "slow", 0.21),
        (
            NodeSlowdown(at_s=0.0, version="fast", speed_factor=0.05),
            NodeCrash(at_s=2.0, version="slow", recover_at_s=2.5),
        ),
        retry=RetryPolicy(max_attempts=3, backoff_s=20.0),
        rate=1.0,
    ),
    # Backoffs on multiples of the 400 ms service time (2.0 s is the
    # second step of 1.0 s): a retry fires the instant a busy node's job
    # completes, ahead of that completion, and starts the node's next
    # job; the completion must not start another ...
    "retry-tied-to-a-completion": _pinned_spec(
        "retry-tied-to-a-completion",
        SingleVersionPolicy("slow"),
        (TransientFaults(0.0, 50.0, 0.6),),
        retry=RetryPolicy(max_attempts=3, backoff_s=1.0),
        rate=4.0,
        pools=(("slow", 2),),
        n_requests=20,
    ),
    # ... and a crash aborts the job the retry started.
    "crash-after-a-tied-retry": _pinned_spec(
        "crash-after-a-tied-retry",
        SingleVersionPolicy("slow"),
        (
            TransientFaults(0.0, 50.0, 0.5),
            NodeCrash(at_s=2.0, version="slow", recover_at_s=3.0),
        ),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.4),
        rate=4.0,
        pools=(("slow", 2),),
        n_requests=20,
        seed=9,
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_BRANCHES))
def test_pinned_failed_attempt_branches_match_the_oracle(name, toy):
    spec = _PINNED_BRANCHES[name]

    def build():
        sim = build_simulator(
            build_replay_cluster(toy, dict(spec.pools)),
            configuration=spec.configuration,
            measurements=toy,
            check_invariants=True,
            **spec.engine_fields(),
        )
        return sim, lambda: sim.run(
            spec.arrivals, spec.n_requests, payload_ids=toy.request_ids
        )

    legacy, legacy_books, columnar, books = _run_window_pair(None, toy, build)
    assert_reports_identical(legacy, columnar)
    assert list(legacy.records) == list(columnar.records)
    assert legacy_books == books


def test_et_cap_with_the_accurate_leg_first_matches_the_oracle(toy):
    # Early termination bills the accurate leg min(its time, the fast
    # solo time), also when the accurate leg lands first: one fast node
    # saturated at 30 requests/s queues its jobs past the 400 ms accurate
    # service time, which 16 accurate nodes start on arrival.  The fuzzed
    # draws reach that branch of deliver() only in the slow tier.
    spec = _pinned_spec(
        "et-accurate-first",
        EarlyTerminationPolicy("fast", "slow", 0.6),
        (),
        rate=30.0,
        pools=(("fast", 1), ("slow", 16)),
        n_requests=40,
    )
    for check_invariants in (False, True):
        legacy, columnar = run_both(spec, toy, check_invariants=check_invariants)
        assert_reports_identical(legacy, columnar)


def _skip_refund(self, now, aborted):
    """Mutant: the crashed node keeps its unelapsed busy time."""
    self.served -= aborted
    self.alive = False
    self.write_back()
    self.real.alive = False


def _append_requeue(self, item):
    """Mutant: migrated work joins the queue's tail, not its FIFO slot."""
    self.queue.append(item)


@pytest.mark.parametrize(
    "method, mutant",
    [("kill", _skip_refund), ("requeue", _append_requeue)],
    ids=["skip-refund", "append-requeue"],
)
def test_window_fault_family_catches_crash_path_mutants(
    method, mutant, monkeypatch, toy
):
    """Teeth: each mutant of the columnar crash path is caught by the
    fast-tier family (a digest, record, book or invariant difference)."""
    from repro.service.simulation import columnar

    expected = []
    for seed in range(FAST_WINDOW):
        legacy, books, _, _ = _run_window_pair(seed, toy)
        expected.append((legacy.digest(), list(legacy.records), books))
    monkeypatch.setattr(columnar._ShadowNode, method, mutant)
    caught = 0
    for seed in range(FAST_WINDOW):
        build = _window_simulator(seed, toy)
        sim, drain = build()
        try:
            report = drain()
        except AssertionError:  # an invariant the mutant broke
            caught += 1
            continue
        got = (report.digest(), list(report.records), _cluster_books(sim.cluster))
        caught += got != expected[seed]
    assert caught >= 1, f"the {method} mutant survived all {FAST_WINDOW} seeds"


# ----------------------------------------------------------------------
# control ticks: admission, telemetry, SLO ticks and hot swaps as event
# sources of the columnar loop
# ----------------------------------------------------------------------
#: The control family; seeds below :data:`FAST_CONTROL` run in the fast
#: tier.
N_CONTROL = 40
FAST_CONTROL = 16

_ADMISSION = (None, "probabilistic", "degrade")


def _random_control_spec(rng, *, adaptive):
    """SLOs tight enough to breach, one of the admission policies (or
    none), the adaptor on half the fixed-configuration seeds, gray
    detection on half, and a random tick cadence."""
    slos = [
        SLOSpec(
            name="latency",
            max_p95_latency_s=float(rng.uniform(0.2, 1.2)),
            breach_after=int(rng.integers(1, 3)),
            clear_after=int(rng.integers(2, 6)),
        )
    ]
    if rng.uniform() < 0.5:
        slos.append(
            SLOSpec(
                name="availability",
                min_availability=float(rng.uniform(0.8, 0.99)),
                breach_after=1,
                clear_after=int(rng.integers(2, 5)),
            )
        )
    admission = _ADMISSION[int(rng.integers(0, len(_ADMISSION)))]
    return ControlSpec(
        window_s=float(rng.uniform(2.0, 8.0)),
        tick_interval_s=float(rng.uniform(0.1, 0.75)),
        slos=tuple(slos),
        admission=AdmissionSpec(
            policy=admission, shed_probability=float(rng.uniform(0.2, 0.9))
        )
        if admission
        else None,
        adaptor=AdaptorConfig(
            refit_interval_s=float(rng.uniform(0.5, 2.0)),
            min_window_samples=int(rng.integers(8, 20)),
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
            thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
        )
        if adaptive and rng.uniform() < 0.5
        else None,
        gray_detection=GrayDetectionSpec(
            ratio_threshold=float(rng.uniform(1.2, 2.5)),
            min_samples=int(rng.integers(2, 8)),
            detect_after=int(rng.integers(1, 3)),
            clear_after=int(rng.integers(1, 3)),
            state_on_detect=SLOState.BREACH if rng.uniform() < 0.5 else SLOState.WARN,
        )
        if rng.uniform() < 0.5
        else None,
    )


def _control_simulator(seed, toy):
    """One member of the family, built twice over: a random
    ``ControlSpec`` on a fault-free spec or — every other seed — on a
    ``NodeCrash`` cycle (plus a straggler or a gray node) under a
    ``RetryPolicy``.  One seed in four is a routed session of one-by-one
    submissions; the rest use ``run()`` on a fixed
    configuration, the only shape the adaptor anchors on."""
    rng = np.random.default_rng([seed, 20261016])
    routed = seed % 4 == 3
    router = _random_router(rng) if routed else None
    policy = None if routed else _random_policy(rng)
    pools = {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))}
    rng.integers(0, 4)  # a retired draw, kept so later draws stay put
    batching = (
        BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if rng.uniform() < 0.5
        else None
    )
    rate = float(rng.uniform(4.0, 16.0))
    n = int(rng.integers(60, 140))
    span = n / rate
    faults, retry = (), RetryPolicy()
    if seed % 2:
        version = str(rng.choice(sorted(pools)))
        cycle = float(rng.uniform(0.2, 0.4)) * span
        faults = tuple(
            NodeCrash(
                at_s=cycle * k + 0.1 * span,
                version=version,
                node_index=0,
                recover_at_s=cycle * k + 0.1 * span + cycle / 2
                if rng.uniform() < 0.8
                else None,
            )
            for k in range(3)
        )
        slow = str(rng.choice(sorted(pools)))
        faults += (
            GrayFailure(
                at_s=float(rng.uniform(0.0, 0.5)) * span,
                version=slow,
                node_index=int(rng.integers(0, 3)),
                speed_factor=float(rng.uniform(0.1, 0.5)),
                confidence_factor=float(rng.uniform(0.5, 1.0)),
            )
            if rng.uniform() < 0.5
            else NodeSlowdown(
                at_s=float(rng.uniform(0.0, 0.5)) * span,
                version=slow,
                node_index=int(rng.integers(0, 3)),
                speed_factor=float(rng.uniform(0.1, 0.5)),
                until_s=span,
            ),
        )
        retry = _random_retry(rng)
    control = _random_control_spec(rng, adaptive=not routed)
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    requests = [
        ServiceRequest(
            request_id=f"c_{i:04d}",
            payload=str(rng.choice(toy.request_ids)),
            tolerance=float(rng.choice((0.0, 0.01, 0.05, 0.10))),
            objective=tuple(Objective)[int(rng.integers(0, 2))],
        )
        for i in range(n)
    ]

    def build(trace=None):
        sim = build_simulator(
            build_replay_cluster(toy, pools),
            router=router,
            configuration=None
            if routed
            else EnsembleConfiguration(f"c_{seed}", policy),
            batching=batching,
            faults=faults,
            retry=retry,
            control=control,
            measurements=toy,
            check_invariants=True,
            trace=trace,
            seed=seed,
        )
        if routed:
            for request, at_time in zip(requests, times.tolist()):
                sim.submit(request, at_time=at_time)
            return sim, sim.drain
        return sim, lambda: sim.run(
            PoissonArrivals(rate), n, payload_ids=toy.request_ids
        )

    return build


def _control_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow) if seed >= FAST_CONTROL else seed
        for seed in range(N_CONTROL)
    ]


def _observed(report):
    """What the family compares: the report digest, both log streams and
    every record field."""
    return (
        report.digest(),
        control_log_digest(report),
        fault_log_digest(report),
        list(report.records),
    )


@pytest.mark.parametrize("seed", _control_seeds())
def test_control_family_digest_identical(seed, toy):
    """Random control planes — SLOs, every admission policy, the adaptor,
    gray detection, any tick cadence — on healthy and crashing specs run
    columnar and match the scalar oracle: digests, the control and fault
    streams, every record field and the cluster's books; conservation
    holds (submitted = answered + failed + shed)."""
    build = _control_simulator(seed, toy)
    legacy, legacy_books, columnar, books = _run_window_pair(None, toy, build)
    assert_reports_identical(legacy, columnar)
    assert _observed(legacy) == _observed(columnar)
    assert legacy_books == books
    answered = sum(not (r.failed or r.shed) for r in columnar.records)
    assert answered + columnar.n_failed + columnar.n_shed == columnar.n_requests


def test_control_family_reaches_every_control_path(toy):
    """The fast seeds shed, degrade, swap, detect gray nodes and
    transition SLOs, on healthy and crashing runs alike."""
    seen = set()
    for seed in range(FAST_CONTROL):
        report = _control_simulator(seed, toy)()[1]()
        seen |= {entry.kind for entry in report.control_log}
        seen |= {"shed"} if report.n_shed else set()
        seen |= {"degraded"} if report.n_degraded else set()
        seen |= {"crash"} if report.fault_log else set()
    assert {"slo", "swap", "gray-detected", "shed", "degraded", "crash"} <= seen, (
        sorted(seen)
    )


def _mutant(module, name, edits):
    """``module.name`` compiled from the module's source with ``edits``,
    each ``(site, mutated site)`` applied at its one site."""
    import inspect
    import types

    source = inspect.getsource(module)
    for old, new in edits:
        assert source.count(old) == 1, f"mutation site not found once: {old!r}"
        source = source.replace(old, new)
    # Named as the module it mutates, so a dataclass in it resolves its
    # annotations against the real module.
    mutant = types.ModuleType(module.__name__)
    exec(compile(source, module.__file__, "exec"), mutant.__dict__)
    return getattr(mutant, name)


def _mutant_loop(old, new):
    """``run_columnar`` compiled from ``columnar.py`` with one edit."""
    from repro.service.simulation import columnar

    return _mutant(columnar, "run_columnar", [(old, new)])


#: Control-path mutants of the columnar loop: ``(site, mutated site)``.
_CONTROL_MUTANTS = {
    # The tick snapshots telemetry before it sees the rows finalized
    # since the last tick.
    "flush-after-tick": (
        "            flush()\n            swap = control.on_tick(now)\n",
        "            swap = control.on_tick(now)\n            flush()\n",
    ),
    # A hot swap re-plans the requests already in flight.
    "swap-in-flight": (
        "                sim._apply_configuration(swap)\n",
        "                sim._apply_configuration(swap)\n"
        "                for sub in range(n):\n"
        "                    if attempt[sub << 1] and not resolved[sub]:\n"
        "                        assign(sub, swap)\n",
    ),
}


@pytest.mark.parametrize("mutant", sorted(_CONTROL_MUTANTS))
def test_control_family_catches_control_path_mutants(mutant, monkeypatch, toy):
    """Teeth: each mutant of the columnar control source is caught by the
    fast-tier family (a digest, log, record or invariant difference, or a
    run that breaks)."""
    import repro.service.simulation.engine as engine

    expected = []
    for seed in range(FAST_CONTROL):
        legacy_sim, drain = _control_simulator(seed, toy)()
        with scalar_loop():
            expected.append(_observed(drain()))
    monkeypatch.setattr(engine, "run_columnar", _mutant_loop(*_CONTROL_MUTANTS[mutant]))
    caught = 0
    for seed in range(FAST_CONTROL):
        _, drain = _control_simulator(seed, toy)()
        try:
            caught += _observed(drain()) != expected[seed]
        except Exception:  # an invariant the mutant broke, or a crash
            caught += 1
    assert caught >= 1, f"the {mutant} mutant survived all {FAST_CONTROL} seeds"


# ----------------------------------------------------------------------
# completion faults: transient windows, retry storms, cascades and herds
# on the columnar loop, decided by the one owner both loops consult
# ----------------------------------------------------------------------
#: The completion-fault family; seeds below :data:`FAST_COMPLETION` run
#: in the fast tier.
N_COMPLETION = 40
FAST_COMPLETION = 16


def _random_completion_faults(rng, pools, span, first):
    """1-4 faults that fail completions or hold arrivals, the first of
    kind ``first``, plus a crash on most seeds (cascades need crashes).
    Times sit on a 0.25 s grid, so window openings, herd releases and
    recoveries often tie."""

    def on_grid(low, high):
        return round(float(rng.uniform(low, high)) * span * 4.0) / 4.0

    def scope():
        return (str(rng.choice(sorted(pools))),) if rng.uniform() < 0.5 else None

    faults = []
    if rng.uniform() < 0.75:
        version = str(rng.choice(sorted(pools)))
        at = on_grid(0.05, 0.5)
        faults.append(
            NodeCrash(
                at_s=at,
                version=version,
                node_index=int(rng.integers(0, 2)),
                recover_at_s=at + on_grid(0.1, 0.5) + 0.25
                if rng.uniform() < 0.8
                else None,
            )
        )
    for draw in range(int(rng.integers(1, 5))):
        start = on_grid(0.0, 0.7)
        end = start + on_grid(0.1, 0.6) + 0.25
        kind = int(rng.integers(0, 4)) if draw else first
        if kind == 0:
            faults.append(
                TransientFaults(
                    start_s=start,
                    end_s=end,
                    failure_probability=float(rng.uniform(0.1, 0.9)),
                    versions=scope(),
                )
            )
        elif kind == 1:
            faults.append(
                RetryStorm(
                    start_s=start,
                    end_s=end,
                    failure_probability=float(rng.uniform(0.3, 1.0)),
                    bucket_s=float(rng.choice([0.1, 0.25, 0.5])),
                    bad_fraction=float(rng.uniform(0.2, 0.8)),
                    versions=scope(),
                )
            )
        elif kind == 2:
            faults.append(
                CascadePolicy(
                    version=str(rng.choice(sorted(pools)))
                    if rng.uniform() < 0.3
                    else None,
                    window_s=float(rng.uniform(0.5, 4.0)),
                    base_probability=float(rng.uniform(0.0, 0.4)),
                    load_factor=float(rng.uniform(0.0, 0.3)),
                    max_probability=float(rng.uniform(0.5, 1.0)),
                )
            )
        else:
            faults.append(
                ThunderingHerd(
                    start_s=start,
                    end_s=end,
                    spread_s=0.0 if rng.uniform() < 0.5 else 0.1,
                )
            )
    # A herd released the instant a window opens: the tie whose order the
    # onset stream must keep (window openings, then herd releases).
    opening = [
        f.start_s for f in faults if isinstance(f, (TransientFaults, RetryStorm))
    ]
    faults = [
        dataclasses.replace(f, end_s=max(opening))
        if isinstance(f, ThunderingHerd) and max(opening, default=0.0) > f.start_s
        else f
        for f in faults
    ]
    return [faults[i] for i in rng.permutation(len(faults))]


def _completion_simulator(seed, toy):
    """One member of the family, built twice over: completion faults (the
    seed picks the first one's type) mixed into the window-fault draws
    under a retry policy (budgets on half; one seed in five a plain
    policy whose backoff ties retries to completions), batching on half,
    a control plane on one seed in three, and one seed in four a routed
    session of one-by-one submissions (no herd moves those: only
    ``run()``'s workload is held)."""
    rng = np.random.default_rng([seed, 20261018])
    routed = seed % 4 == 3
    router = _random_router(rng) if routed else None
    policy = None if routed else _random_policy(rng)
    pools = {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))}
    batching = (
        BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if rng.uniform() < 0.5
        else None
    )
    rate = float(rng.uniform(4.0, 14.0))
    n = int(rng.integers(40, 100))
    span = n / rate
    faults = tuple(
        _random_completion_faults(rng, pools, span, seed % 4)
        + list(_random_window_faults(rng, pools, span) if rng.uniform() < 0.5 else ())
    )
    retry = _random_retry(rng)
    if seed % 5 == 4:
        # Backoffs of 0.8 and 1.6 s are whole multiples of both service
        # times (50 and 400 ms): a retry fires the instant a busy node's
        # chain of jobs completes, and starts the node's next job before
        # that completion is handled.
        retry = RetryPolicy(max_attempts=3, backoff_s=0.8)
    control = (
        _random_control_spec(rng, adaptive=not routed) if seed % 3 == 1 else None
    )
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    requests = [
        ServiceRequest(
            request_id=f"f_{i:04d}",
            payload=str(rng.choice(toy.request_ids)),
            tolerance=float(rng.choice((0.0, 0.01, 0.05, 0.10))),
            objective=tuple(Objective)[int(rng.integers(0, 2))],
        )
        for i in range(n)
    ]

    def build():
        sim = build_simulator(
            build_replay_cluster(toy, pools),
            router=router,
            configuration=None
            if routed
            else EnsembleConfiguration(f"f_{seed}", policy),
            batching=batching,
            faults=faults,
            retry=retry,
            control=control,
            measurements=toy,
            check_invariants=True,
            seed=seed,
        )
        if routed:
            for request, at_time in zip(requests, times.tolist()):
                sim.submit(request, at_time=at_time)
            return sim, sim.drain
        return sim, lambda: sim.run(
            PoissonArrivals(rate), n, payload_ids=toy.request_ids
        )

    return build


def _completion_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow)
        if seed >= FAST_COMPLETION
        else seed
        for seed in range(N_COMPLETION)
    ]


@pytest.mark.parametrize("seed", _completion_seeds())
def test_completion_fault_family_digest_identical(seed, toy):
    """Transient windows, retry storms, cascades and herds — with crashes,
    stragglers, gray nodes, retry budgets, batching, routed sessions and
    control planes — run columnar and match the scalar oracle: digests,
    the fault and control streams, every record field and the books."""
    build = _completion_simulator(seed, toy)
    legacy, legacy_books, columnar, books = _run_window_pair(None, toy, build)
    assert_reports_identical(legacy, columnar)
    assert _observed(legacy) == _observed(columnar)
    assert legacy_books == books


def test_completion_fault_family_reaches_every_fault_path(toy):
    """The fast seeds open transient and storm windows, open cascade
    windows on crashes, release herds, retry, deny retries, fail requests
    and run under a control plane."""
    seen = set()
    for seed in range(FAST_COMPLETION):
        report = _completion_simulator(seed, toy)()[1]()
        seen |= {entry.kind for entry in report.fault_log}
        seen |= {"retried"} if report.total_retries else set()
        seen |= {"denied"} if report.n_retry_denied else set()
        seen |= {"failed"} if report.n_failed else set()
        seen |= {"control"} if report.control_log else set()
    assert {
        "transient-window", "storm-window", "cascade", "herd", "crash",
        "recover", "retried", "denied", "failed", "control",
    } <= seen, sorted(seen)


def _tied_release():
    """A herd releasing every held arrival at t=4, the instant a crashed
    node's replacement joins and a transient window opens: the window
    opening, then the release, then the arrivals, then the recovery."""

    def build(toy):
        sim = ServingSimulator(
            build_replay_cluster(toy, {"fast": 2, "slow": 1}),
            configuration=EnsembleConfiguration(
                "tied", EarlyTerminationPolicy("fast", "slow", 0.6)
            ),
            batching=BatchingConfig(max_batch_size=3, max_wait_s=0.05),
            faults=(
                ThunderingHerd(start_s=2.0, end_s=4.0, spread_s=0.0),
                NodeCrash(at_s=1.0, version="fast", recover_at_s=4.0),
                TransientFaults(start_s=4.0, end_s=6.0, failure_probability=0.5),
                CascadePolicy(version="fast", window_s=2.0),
            ),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.05),
            check_invariants=True,
            seed=7,
        )
        return sim, lambda: sim.run(
            PoissonArrivals(6.0), 50, payload_ids=toy.request_ids
        )

    return build


def test_a_herd_release_tied_to_a_recovery_and_a_window_matches_the_oracle(toy):
    build = _tied_release()
    legacy, legacy_books, columnar, books = _run_window_pair(
        None, toy, lambda: build(toy)
    )
    assert_reports_identical(legacy, columnar)
    assert _observed(legacy) == _observed(columnar)
    assert legacy_books == books
    at_four = [entry.kind for entry in columnar.fault_log if entry.time_s == 4.0]
    assert at_four == ["transient-window", "herd", "recover"], at_four
    assert int(np.count_nonzero(columnar.columns.arrival_s == 4.0)) > 1


#: Completion-fault mutants of the columnar loop: ``(site, mutated site)``.
_COMPLETION_MUTANTS = {
    # The owner is consulted twice per completion: one draw too many from
    # the fault generator, ahead of the consult that decides.
    "consult-twice": (
        "        key = sub << 1 | leg\n        if fails is not None:\n",
        "        key = sub << 1 | leg\n"
        "        early = fails(leg_version[key], finish, pool_load) if fails else None\n"
        "        if fails is not None:\n",
    ),
    # Herd releases join the onset stream ahead of the window openings.
    "herd-before-windows": (
        "    onsets += sim._releases\n",
        "    onsets[:0] = sim._releases\n",
    ),
}


@pytest.mark.parametrize("mutant", sorted(_COMPLETION_MUTANTS))
def test_completion_fault_family_catches_mutants(mutant, monkeypatch, toy):
    """Teeth: each mutant of the columnar completion-fault path is caught
    by the fast-tier family or the tie pin (a digest, log, record or
    invariant difference, or a run that breaks)."""
    import repro.service.simulation.engine as engine

    builds = [_completion_simulator(seed, toy) for seed in range(FAST_COMPLETION)]
    tied = _tied_release()
    builds.append(lambda: tied(toy))
    expected = []
    for build in builds:
        _, drain = build()
        with scalar_loop():
            expected.append(_observed(drain()))
    monkeypatch.setattr(
        engine, "run_columnar", _mutant_loop(*_COMPLETION_MUTANTS[mutant])
    )
    caught = 0
    for build, want in zip(builds, expected):
        _, drain = build()
        try:
            caught += _observed(drain()) != want
        except Exception:  # an invariant the mutant broke, or a crash
            caught += 1
    assert caught >= 1, f"the {mutant} mutant survived all {len(builds)} specs"


# ----------------------------------------------------------------------
# autoscaling: a tick source of the columnar loop whose every decision
# the one owner both loops call takes
# ----------------------------------------------------------------------
#: The autoscale family; seeds below :data:`FAST_AUTOSCALE` run in the
#: fast tier.
N_AUTOSCALE = 40
FAST_AUTOSCALE = 16

#: Tick cadences on a grid the toy's service times (0.05 s, 0.4 s) land
#: on: a job a tick starts often ends on a later tick.
_SCALE_TICKS = (0.1, 0.2, 0.4, 0.5)


def _autoscale_simulator(seed, toy):
    """One member of the family, built twice over: an autoscaler over a
    burst, a lull and a second burst — so pools grow on queue depth and
    utilization and shrink when idle — mixed with the window-fault draws
    (a whole pool crashed on one seed in three), a cold-start wave on
    half the seeds, a retry policy, batching on half, a control plane
    on one seed in three (on half of those ticking on the autoscaler's
    grid), and one seed in four a routed session of one-by-one
    submissions."""
    rng = np.random.default_rng([seed, 20261019])
    routed = seed % 4 == 3
    router = _random_router(rng) if routed else None
    policy = None if routed else _random_policy(rng)
    pools = {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))}
    batching = (
        BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.choice([0.0, 0.05, 0.1])),
        )
        if rng.uniform() < 0.5
        else None
    )
    interval = float(rng.choice(_SCALE_TICKS))
    scaler = AutoscalerConfig(
        min_nodes=int(rng.integers(1, 3)),
        max_nodes=int(rng.integers(3, 6)),
        scale_up_queue_depth=float(rng.uniform(1.0, 4.0)),
        scale_up_utilization=float(rng.uniform(0.5, 0.9)),
        scale_down_utilization=float(rng.uniform(0.1, 0.45)),
        evaluation_interval_s=interval,
        cooldown_s=float(rng.choice([0.0, interval, 2.0 * interval, 1.5])),
    )
    high, low = float(rng.uniform(10.0, 25.0)), float(rng.uniform(0.5, 2.0))
    counts = [
        int(rng.integers(20, 50)), int(rng.integers(5, 12)), int(rng.integers(15, 40))
    ]
    times = np.cumsum(
        np.concatenate(
            [
                rng.exponential(1.0 / rate, count)
                for rate, count in zip((high, low, high), counts)
            ]
        )
    )
    n, span = len(times), float(times[-1])
    faults = _random_window_faults(rng, pools, span)
    if rng.uniform() < 0.5:
        faults += (
            ColdStartWave(
                warmup_s=float(rng.choice([interval, 1.0, 2.5])),
                speed_factor=float(rng.uniform(0.2, 0.8)),
                confidence_factor=float(rng.choice([1.0, 0.7])),
                version=str(rng.choice(sorted(pools)))
                if rng.uniform() < 0.5
                else None,
            ),
        )
    retry = _random_retry(rng)
    control = None
    if seed % 3 == 1:
        control = _random_control_spec(rng, adaptive=not routed)
        if rng.uniform() < 0.5:
            control = dataclasses.replace(control, tick_interval_s=interval)
    requests = [
        ServiceRequest(
            request_id=f"a_{i:04d}",
            payload=str(rng.choice(toy.request_ids)),
            tolerance=float(rng.choice((0.0, 0.01, 0.05, 0.10))),
            objective=tuple(Objective)[int(rng.integers(0, 2))],
        )
        for i in range(n)
    ]

    def build():
        sim = build_simulator(
            build_replay_cluster(toy, pools),
            router=router,
            configuration=None
            if routed
            else EnsembleConfiguration(f"a_{seed}", policy),
            batching=batching,
            autoscaler_config=scaler,
            faults=faults,
            retry=retry,
            control=control,
            measurements=toy,
            check_invariants=True,
            seed=seed,
        )
        if routed:
            for request, at_time in zip(requests, times.tolist()):
                sim.submit(request, at_time=at_time)
            return sim, sim.drain
        return sim, lambda: sim.run(
            TraceArrivals(times), n, payload_ids=toy.request_ids
        )

    return build


def _autoscale_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow)
        if seed >= FAST_AUTOSCALE
        else seed
        for seed in range(N_AUTOSCALE)
    ]


def _scaled(report):
    """What an autoscaled run adds to :func:`_observed`: its scaling
    events and the pool sizes it ends with."""
    return (*_observed(report), report.scaling_events, report.final_pool_sizes)


@pytest.mark.parametrize("seed", _autoscale_seeds())
def test_autoscale_family_digest_identical(seed, toy):
    """Autoscaled runs — pools grown on queue depth, utilization and dead
    pools, shrunk when idle, under crashes, cold-start waves, retries,
    batching, routed sessions and control planes — run columnar and
    match the scalar oracle: digests, the fault and control streams,
    every record field, the scaling events, the final pool sizes and
    the cluster's live and retired books."""
    build = _autoscale_simulator(seed, toy)
    legacy, legacy_books, columnar, books = _run_window_pair(None, toy, build)
    assert_reports_identical(legacy, columnar)
    assert _scaled(legacy) == _scaled(columnar)
    assert legacy_books == books


def test_autoscale_family_reaches_every_scaling_path(toy, monkeypatch):
    """The fast seeds fire every trigger, hold in a cooldown, and meet a
    scale-down refused because no node is idle — on the columnar loop,
    where the family's crashes empty pools and waves warm new nodes."""
    decisions = []
    decide = Autoscaler.decide

    def spy(self, version, **reading):
        reason = decide(self, version, **reading)
        unheld = decide(Autoscaler(self.config), version, **reading)
        decisions.append((reason, unheld))
        return reason

    monkeypatch.setattr(Autoscaler, "decide", spy)
    seen = set()
    for seed in range(FAST_AUTOSCALE):
        sim, drain = _autoscale_simulator(seed, toy)()
        del decisions[:]
        report = drain()
        assert sim.engine_used == "columnar"
        seen |= {event.reason for event in report.scaling_events}
        seen |= {entry.kind for entry in report.fault_log}
        seen |= {"control"} if report.control_log else set()
        if any(reason is None and unheld for reason, unheld in decisions):
            seen.add("cooldown-hold")
        idle = sum(reason == "idle" for reason, _ in decisions)
        if idle > sum(e.reason == "idle" for e in report.scaling_events):
            seen.add("no-idle-node")
    assert {
        "queue-depth", "utilization", "dead-pool", "idle", "cooldown-hold",
        "no-idle-node", "crash", "cold-start", "control",
    } <= seen, sorted(seen)


def _tied_scale_up():
    """A dead pool refilled by the autoscaler whose parked jobs end on
    the ticks: every 0.4 s tick of the autoscaler and of the control
    plane, the slow version's 0.4 s service time, so each completion
    ties with both ticks and the plane sees the row at that tick only if
    the autoscaler armed first (as drain() arms them)."""

    def build(toy):
        sim = build_simulator(
            build_replay_cluster(toy, {"slow": 1}),
            configuration=EnsembleConfiguration(
                "tied-scale", SingleVersionPolicy("slow")
            ),
            autoscaler_config=AutoscalerConfig(
                max_nodes=2, evaluation_interval_s=0.4, cooldown_s=0.0
            ),
            faults=(NodeCrash(at_s=0.1, version="slow"),),
            control=ControlSpec(
                window_s=30.0,
                tick_interval_s=0.4,
                slos=(SLOSpec(name="latency", max_p95_latency_s=1.0),),
            ),
            measurements=toy,
            check_invariants=True,
            seed=5,
        )
        return sim, lambda: sim.run(
            TraceArrivals(np.linspace(0.0, 0.3, 40)), 40, payload_ids=toy.request_ids
        )

    return build


def test_a_scale_up_tied_to_both_ticks_matches_the_oracle(toy):
    build = _tied_scale_up()
    legacy, legacy_books, columnar, books = _run_window_pair(
        None, toy, lambda: build(toy)
    )
    assert_reports_identical(legacy, columnar)
    assert _scaled(legacy) == _scaled(columnar)
    assert legacy_books == books
    assert columnar.scaling_events[0].reason == "dead-pool"
    ticks = set(itertools.accumulate([0.4] * 60))
    ends = set(columnar.columns.finished_s.tolist())
    assert len(ends & ticks) >= 30, sorted(ends - ticks)


#: Autoscaling mutants: ``(module, edits)``.  A columnar edit compiles a
#: mutant ``run_columnar``; the owner's compiles a mutant
#: ``PoolScaling``, which serves both loops, so it is held against the
#: oracle's unmutated runs.
_AUTOSCALE_MUTANTS = {
    # Scale-down retires the first idle node, not the last.
    "first-idle-node": (
        "columnar",
        [
            (
                "        for node in reversed(pool):\n"
                "            if not node.queue and node.busy_until <= now:\n",
                "        for node in pool:\n"
                "            if not node.queue and node.busy_until <= now:\n",
            )
        ],
    ),
    # The utilization baseline keeps a removed node's busy seconds.
    "baseline-uncorrected": (
        "autoscaler",
        [("                self._last_busy[version] -= removed.busy_seconds\n", "")],
    ),
    # The autoscale tick is armed after the control tick.
    "armed-after-control": (
        "columnar",
        [
            (
                "        schedule(scaling.interval, autoscale, None)\n",
                "        if control is None:\n"
                "            schedule(scaling.interval, autoscale, None)\n",
            ),
            (
                "        schedule(interval, tick, None)\n",
                "        schedule(interval, tick, None)\n"
                "        if scaling is not None:\n"
                "            schedule(scaling.interval, autoscale, None)\n",
            ),
        ],
    ),
    # A scale-up leaves the work parked behind the pool where it is.
    "parked-unflushed": (
        "columnar",
        [
            (
                "        for item in parked.pop(version, {}).values():\n",
                "        for item in (parked.pop(version, {}) if fault else {}).values():\n",
            )
        ],
    ),
}


class _Stuck(Exception):
    """A mutant run that did not finish in time."""


@pytest.mark.parametrize("mutant", sorted(_AUTOSCALE_MUTANTS))
def test_autoscale_family_catches_mutants(mutant, monkeypatch, toy):
    """Teeth: each mutant of the autoscaling path is caught by the fast
    tier family or the tie pin (a digest, log, event, book or invariant
    difference, a run that breaks, or one that never ends)."""
    import signal

    import repro.service.simulation.engine as engine
    from repro.service.simulation import autoscaler, columnar

    builds = [_autoscale_simulator(seed, toy) for seed in range(FAST_AUTOSCALE)]
    tied = _tied_scale_up()
    builds.append(lambda: tied(toy))
    expected = []
    for build in builds:
        sim, drain = build()
        with scalar_loop():
            expected.append((_scaled(drain()), _cluster_books(sim.cluster)))
    where, edits = _AUTOSCALE_MUTANTS[mutant]
    if where == "columnar":
        monkeypatch.setattr(
            engine, "run_columnar", _mutant(columnar, "run_columnar", edits)
        )
    else:
        monkeypatch.setattr(
            engine, "PoolScaling", _mutant(autoscaler, "PoolScaling", edits)
        )

    def give_up(*_):
        raise _Stuck

    previous = signal.signal(signal.SIGALRM, give_up)
    caught = 0
    try:
        for build, want in zip(builds, expected):
            sim, drain = build()
            signal.setitimer(signal.ITIMER_REAL, 10.0)
            try:
                caught += (_scaled(drain()), _cluster_books(sim.cluster)) != want
            except Exception:  # an invariant the mutant broke, a crash, a hang
                caught += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert caught >= 1, f"the {mutant} mutant survived all {len(builds)} specs"


# ----------------------------------------------------------------------
# engine-boundary edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["legacy", "columnar"])
def test_zero_request_drain_raises_identically(engine, toy):
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 1}),
        configuration=EnsembleConfiguration("z", SingleVersionPolicy("fast")),
    )
    with loop(engine), pytest.raises(ValueError, match="at least one record"):
        sim.drain()


def test_single_request_run_digest_identical(toy):
    spec = ScenarioSpec(
        name="one",
        arrivals=PoissonArrivals(2.0),
        n_requests=1,
        pools={"fast": 1, "slow": 1},
        configuration=EnsembleConfiguration(
            "one", SequentialPolicy("fast", "slow", 0.6)
        ),
        batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01),
        seed=5,
    )
    legacy, columnar = run_both(spec, toy)
    assert_reports_identical(legacy, columnar)
    assert legacy.n_requests == 1


def _arrivals_tied_to_completions(max_batch, toy):
    """A checked drain of arrivals on the fast version's 50 ms grid, which
    land the instant the one node finishes a job."""
    times = [0.0, 0.05, 0.05, 0.1, 0.15, 0.15, 0.15, 0.2, 0.25, 0.25]
    requests = [
        ServiceRequest(f"tie_{i}", toy.request_ids[i]) for i in range(len(times))
    ]
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 1}),
        configuration=EnsembleConfiguration("tie", SingleVersionPolicy("fast")),
        batching=BatchingConfig(max_batch_size=max_batch, max_wait_s=0.0),
        check_invariants=True,
    )
    sim.submit_batch(requests, times)
    return sim.drain


@pytest.mark.parametrize("max_batch", [1, 3], ids=["single", "batched"])
def test_an_arrival_tied_to_a_completion_matches_the_oracle(max_batch, toy):
    """The arrival starts the node's next job, and the completion handled
    after it must not start another."""
    with scalar_loop():
        legacy = _arrivals_tied_to_completions(max_batch, toy)()
    assert_reports_identical(legacy, _arrivals_tied_to_completions(max_batch, toy)())


#: The columnar double start: both completion handlers start the node's
#: next job without asking whether a tied event already started one.
_DOUBLE_START = [
    (
        "            # whose backoff ends now) may have started the next job.\n"
        "            if node.queue and node.busy_until <= now:\n",
        "            # whose backoff ends now) may have started the next job.\n"
        "            if node.queue:\n",
    ),
    (
        "            if node.queue and node.busy_until <= now:\n"
        "                maybe_start(node, now)\n"
        "        else:\n",
        "            if node.queue:\n"
        "                maybe_start(node, now)\n"
        "        else:\n",
    ),
]


@pytest.mark.parametrize("max_batch", [1, 3], ids=["single", "batched"])
def test_the_checker_catches_a_double_start(max_batch, monkeypatch, toy):
    """Teeth for law 8: with the double start planted, the checked drain
    raises before any digest is compared."""
    import repro.service.simulation.engine as engine
    from repro.service.simulation import columnar

    monkeypatch.setattr(
        engine, "run_columnar", _mutant(columnar, "run_columnar", _DOUBLE_START)
    )
    with pytest.raises(InvariantViolation, match="started work at"):
        _arrivals_tied_to_completions(max_batch, toy)()


def test_negative_arrival_time_raises_identically(toy):
    """The bulk columnar submit mirrors legacy's scheduling guard, down
    to the message and the partially-consumed counter state."""

    class BadArrivals:
        def times(self, n, rng):
            return np.array([0.5, -0.25, 1.0])

    errors = {}
    for engine in ("legacy", "columnar"):
        sim = ServingSimulator(
            build_replay_cluster(toy, {"fast": 1}),
            configuration=EnsembleConfiguration(
                "bad", SingleVersionPolicy("fast")
            ),
        )
        with loop(engine), pytest.raises(ValueError) as excinfo:
            sim.run(BadArrivals(), 3, payload_ids=toy.request_ids)
        errors[engine] = (str(excinfo.value), sim._counter, len(sim._store.ids))
    assert errors["legacy"] == errors["columnar"]


@pytest.mark.parametrize("engine", ["legacy", "columnar"])
@pytest.mark.parametrize("at_time", [float("nan"), float("inf")])
def test_non_finite_arrival_time_is_refused_at_submit(engine, at_time, toy):
    """NaN passes ``at_time < now`` and used to end the drain in a bare
    "requests unresolved"; a refused batch schedules none of itself."""
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 1}),
        configuration=EnsembleConfiguration("f", SingleVersionPolicy("fast")),
    )
    requests = [ServiceRequest(f"r{i}", toy.request_ids[i]) for i in range(3)]
    sim.submit(requests[0], at_time=0.1)
    with pytest.raises(ValueError, match="cannot schedule at t="):
        sim.submit(requests[1], at_time=at_time)
    with pytest.raises(ValueError, match="cannot schedule at t="):
        sim.submit_batch(requests[1:], [0.2, at_time])
    with loop(engine):
        report = sim.drain()
    assert sim.engine_used == engine
    assert [r.request_id for r in report.records] == ["r0"]


# ----------------------------------------------------------------------
# the digest contract over the families
# ----------------------------------------------------------------------
def _family_pair(family, seed, toy):
    """``(oracle report, columnar report)`` of one family member."""
    if family == "fuzzed":
        return run_both(_random_spec(seed), toy)
    if family == "routed":
        legacy_sim, _ = _routed_session(seed, toy)
        with scalar_loop():
            legacy = legacy_sim.drain()
        return legacy, _routed_session(seed, toy)[0].drain()
    build = _window_simulator(seed, toy) if family == "window" else None
    if family == "control":
        build = _control_simulator(seed, toy)
    legacy, _, columnar, _ = _run_window_pair(None, toy, build)
    return legacy, columnar


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", ["fuzzed", "routed", "window", "control"])
def test_v1_equal_runs_are_v2_equal(family, seed, toy):
    """The contract bump changed the hash, not what it sees: family
    members the version 1 text digest calls equal, the column digest
    calls equal, and a seeded one-field perturbation (a float past the
    rounding, a request id, a flag) changes both."""
    legacy, columnar = _family_pair(family, seed, toy)
    assert report_digest_v1(legacy) == report_digest_v1(columnar)
    assert legacy.digest() == columnar.digest()
    rng = np.random.default_rng(seed)
    records = list(columnar.records)
    row = int(rng.integers(len(records)))
    record = records[row]
    late = record.finished_s + max(abs(record.finished_s), 1.0) * 2.0**-30
    for change in (
        {"finished_s": late},
        {"request_id": record.request_id + "'"},
        {"degraded": not record.degraded},
    ):
        records[row] = dataclasses.replace(record, **change)
        perturbed = dataclasses.replace(columnar, records=list(records))
        assert report_digest_v1(perturbed) != report_digest_v1(columnar), change
        assert perturbed.digest() != columnar.digest(), change


# ----------------------------------------------------------------------
# the assertion helper itself
# ----------------------------------------------------------------------
def test_a_digest_mismatch_names_its_column_and_row(toy):
    """Engines differ in how they spell a run (the scalar loop's pair
    table has a row per billing shape); the array diff reads through
    that and points at the one value that moved."""
    legacy, columnar = run_both(canonical_scenarios()["baseline"], toy)
    assert columnar.engine_used == "columnar"
    assert legacy.columns.pairs != columnar.columns.pairs
    assert first_divergence(legacy, columnar) is None

    records = list(columnar.records)
    late = dataclasses.replace(records[7], finished_s=records[7].finished_s + 1e-6)
    unbilled = dataclasses.replace(records[4], versions_used=(), node_seconds={})
    for row, record, field in ((7, late, "finished_s"), (4, unbilled, "versions_used")):
        records[row] = record
        tampered = dataclasses.replace(columnar, records=list(records))
        with pytest.raises(pytest.fail.Exception) as failure:
            assert_reports_identical(legacy, tampered)
        assert f"first divergence at record[{row}].{field}:" in str(failure.value)
        assert repr(getattr(record, field)) in str(failure.value)
    # Then what is not a column.
    resized = dataclasses.replace(columnar, final_pool_sizes={"fast": 9})
    with pytest.raises(pytest.fail.Exception, match="first divergence at pool"):
        assert_reports_identical(legacy, resized)


def test_a_log_mismatch_names_its_stream_and_entry(toy):
    """The fault and control streams are compared as the digest renders
    them: line by line, then by length."""
    spec = dataclasses.replace(canonical_scenarios()["node-crash"], control=None)
    report = run_scenario(spec, toy)
    assert len(report.fault_log) >= 2 and first_divergence(report, report) is None
    moved = dataclasses.replace(report.fault_log[1], detail="tampered")
    for log, where in (
        ([report.fault_log[0], moved, *report.fault_log[2:]], "fault[1]"),
        (report.fault_log[:-1], "length.n_faults"),
    ):
        tampered = dataclasses.replace(report, fault_log=log)
        assert tampered.digest() != report.digest()
        with pytest.raises(pytest.fail.Exception) as failure:
            assert_reports_identical(report, tampered)
        assert f"first divergence at {where}:" in str(failure.value)
    # node ids are process-local: neither the digest nor the diff sees one.
    renumbered = dataclasses.replace(report.fault_log[0], node_id="elsewhere")
    same = dataclasses.replace(report, fault_log=[renumbered, *report.fault_log[1:]])
    assert same.digest() == report.digest() and first_divergence(report, same) is None
