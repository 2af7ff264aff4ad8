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
4. **Eligibility** — the specs the columnar fast path claims to handle
   really run columnar (``engine_used`` says so), and the ones it must
   not handle fall back to legacy with a stated reason.
5. **Routed traffic** — :data:`N_ROUTED` seeded sessions in which a
   ``TierRouter`` serves every request by its own annotation (a random
   mix of all five configuration shapes, one-by-one submissions) run
   columnar and digest-identical to the oracle; one ineligible routed
   configuration falls back naming its reason; a pre-pass that swaps
   two groups' thresholds is caught.
6. **Edge cases** — zero-request drains and single-request runs behave
   identically at the engine boundary.

Digest mismatches do not fail as two opaque hashes: the assertion
helper asks :func:`~repro.service.simulation.first_divergence`, which
diffs the two reports' ``RecordColumns`` column by column and names the
first diverging row, field and both values (then lengths, pool sizes,
the fault and control streams).

Seeds below :data:`FAST_SPECS` run in the fast tier; the rest carry the
``slow`` marker.  This module drives both engines explicitly, so it
shadows the suite-wide ``sim_engine`` matrix fixture to run once.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import MissingVersionError, PolicyConfigurationError
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.request import Objective, ServiceRequest
from repro.service.control import AdmissionSpec, ControlSpec, SLOSpec
from repro.service.load_balancer import (
    JoinShortestQueuePolicy,
    LeastBusyPolicy,
    RoundRobinPolicy,
)
from repro.service.simulation import (
    AutoscalerConfig,
    BatchingConfig,
    BurstyArrivals,
    DiurnalArrivals,
    NodeCrash,
    NodeSlowdown,
    PoissonArrivals,
    RetryPolicy,
    ScenarioSpec,
    ServingSimulator,
    SpikeArrivals,
    TransientFaults,
    build_replay_cluster,
    canonical_scenarios,
    chaos_scenarios,
    first_divergence,
    run_scenario,
    scenario_measurements,
)

N_SPECS = 50
FAST_SPECS = 20

#: The routed family (router-driven sessions); seeds below
#: :data:`FAST_ROUTED` run in the fast tier.
N_ROUTED = 24
FAST_ROUTED = 10

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def sim_engine():
    """Shadow the engine matrix: this module runs both engines itself."""
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


def run_both(spec, toy, *, check_invariants=True, selection_policy=None):
    legacy = run_scenario(
        spec,
        toy,
        check_invariants=check_invariants,
        selection_policy=selection_policy() if selection_policy else None,
        engine="legacy",
    )
    columnar = run_scenario(
        spec,
        toy,
        check_invariants=check_invariants,
        selection_policy=selection_policy() if selection_policy else None,
        engine="columnar",
    )
    return legacy, columnar


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


@pytest.mark.parametrize("name", ("baseline", "node-crash", "flaky"))
def test_columnar_reproduces_golden_traces(name, toy):
    """The columnar engine matches the PR 3 pinned digests directly."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    spec = canonical_scenarios()[name]
    report = run_scenario(spec, toy, check_invariants=True, engine="columnar")
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


#: Within-pool selection policies the fuzz sweeps over (fresh instance
#: per run: round-robin carries a cursor).
_SELECTION = (None, JoinShortestQueuePolicy, LeastBusyPolicy, RoundRobinPolicy)


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
    selection = _SELECTION[int(rng.integers(0, len(_SELECTION)))]
    return spec, selection


def _marked_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow) if seed >= FAST_SPECS else seed
        for seed in range(N_SPECS)
    ]


@pytest.mark.parametrize("seed", _marked_seeds())
def test_fuzzed_specs_digest_identical(seed, toy):
    """Both engines agree — digests, conservation laws, control logs —
    across the randomized scenario space."""
    spec, selection = _random_spec(seed)
    legacy, columnar = run_both(
        spec, toy, check_invariants=True, selection_policy=selection
    )
    assert_reports_identical(legacy, columnar)
    assert control_log_digest(legacy) == control_log_digest(columnar)
    assert legacy.n_requests == spec.n_requests
    assert columnar.n_requests == spec.n_requests


# ----------------------------------------------------------------------
# eligibility: the fast path really runs, the fallback really falls back
# ----------------------------------------------------------------------
def _direct_sim(toy, policy, *, selection_policy=None, batching=True):
    cluster = build_replay_cluster(
        toy, {v: 2 for v in {*policy.versions}}, selection_policy=selection_policy
    )
    return ServingSimulator(
        cluster,
        configuration=EnsembleConfiguration("elig", policy),
        batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01)
        if batching
        else None,
        seed=3,
        engine="columnar",
    )


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
@pytest.mark.parametrize(
    "selection",
    [None, JoinShortestQueuePolicy, LeastBusyPolicy, RoundRobinPolicy],
    ids=["default", "jsq", "lb", "rr"],
)
def test_supported_shapes_run_columnar(policy, selection, toy):
    """Every policy x selection shape the fast path claims is exercised
    end to end without falling back — the differential suite is really
    testing columnar code, not a silent legacy fallback."""
    sim = _direct_sim(
        toy, policy, selection_policy=selection() if selection else None
    )
    report = sim.run(PoissonArrivals(4.0), 60, payload_ids=toy.request_ids)
    assert sim.engine_used == "columnar"
    assert sim.fallback_reason is None
    assert report.n_requests == 60


def test_unsupported_shapes_fall_back_with_reason(toy):
    """Structurally ineligible runs execute on the legacy oracle and say
    why; behaviour still matches a pure legacy run exactly."""
    spec = canonical_scenarios()["diurnal"]  # autoscaled -> ineligible
    cluster = build_replay_cluster(toy, dict(spec.pools))
    from repro.service.simulation import Autoscaler

    sim = ServingSimulator(
        cluster,
        configuration=spec.configuration,
        autoscaler=Autoscaler(spec.autoscaler_config),
        seed=spec.seed,
        engine="columnar",
    )
    report = sim.run(spec.arrivals, spec.n_requests, payload_ids=toy.request_ids)
    assert sim.engine_used == "legacy"
    assert sim.fallback_reason is not None
    legacy = run_scenario(spec, toy, engine="legacy")
    assert_reports_identical(legacy, report)


#: Each chaos scenario and the fault class its fallback reason must name.
_CHAOS_FALLBACK = {
    "gray-failure": "GrayFailure",
    "cascade": "CascadePolicy",
    "retry-storm": "RetryStorm",
    "cold-start": "ColdStartWave",
    "thundering-herd": "ThunderingHerd",
}


@pytest.mark.parametrize("name", sorted(_CHAOS_FALLBACK))
def test_chaos_specs_fall_back_with_named_reason(name, toy):
    """Every chaos fault type makes the columnar path ineligible, the
    fallback reason names the fault class, and the replayed legacy run is
    bit-identical to a pure legacy run."""
    spec = chaos_scenarios()[name]
    from repro.service.simulation import Autoscaler

    sim = ServingSimulator(
        build_replay_cluster(toy, dict(spec.pools)),
        configuration=spec.configuration,
        batching=spec.batching,
        autoscaler=Autoscaler(spec.autoscaler_config)
        if spec.autoscaler_config is not None
        else None,
        faults=spec.faults,
        retry=spec.retry,
        check_invariants=True,
        seed=spec.seed,
        engine="columnar",
    )
    report = sim.run(
        spec.arrivals,
        spec.n_requests,
        tolerance=spec.tolerance,
        objective=spec.objective,
        payload_ids=toy.request_ids,
    )
    assert sim.engine_used == "legacy"
    assert "fault schedule present" in sim.fallback_reason
    assert _CHAOS_FALLBACK[name] in sim.fallback_reason
    legacy = run_scenario(spec, toy, check_invariants=True, engine="legacy")
    assert_reports_identical(legacy, report)


@pytest.mark.parametrize("name", sorted(_CHAOS_FALLBACK))
def test_chaos_scenarios_digest_identical_across_engines(name, toy):
    """engine="columnar" on a chaos spec means 'fall back and replay' —
    the report must match the legacy oracle digest-for-digest."""
    spec = chaos_scenarios()[name]
    legacy, columnar = run_both(spec, toy, check_invariants=True)
    assert_reports_identical(legacy, columnar)
    assert control_log_digest(legacy) == control_log_digest(columnar)


def test_fuzzed_space_exercises_the_columnar_path(toy):
    """A substantial fraction of the fuzzed specs must be genuinely
    columnar-eligible, or the differential sweep proves nothing."""
    columnar_runs = 0
    for seed in range(N_SPECS):
        spec, selection = _random_spec(seed)
        cluster = build_replay_cluster(
            toy, dict(spec.pools),
            selection_policy=selection() if selection else None,
        )
        from repro.service.simulation import Autoscaler

        sim = ServingSimulator(
            cluster,
            configuration=spec.configuration,
            batching=spec.batching,
            autoscaler=Autoscaler(spec.autoscaler_config)
            if spec.autoscaler_config is not None
            else None,
            retry=spec.retry,
            faults=spec.faults,
            seed=spec.seed,
            engine="columnar",
        )
        sim.run(spec.arrivals, spec.n_requests, payload_ids=toy.request_ids)
        if sim.engine_used == "columnar":
            columnar_runs += 1
    assert columnar_runs >= N_SPECS // 4, (
        f"only {columnar_runs}/{N_SPECS} fuzzed specs ran columnar — "
        "the differential sweep is mostly testing the fallback"
    )


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


def _routed_session(seed, toy, engine, *, router=None, tolerances=None):
    """One router-driven session: requests submitted one by one with
    random annotations, payloads and arrival times.  The seed cycles the
    four selection policies and batching on/off, so any eight
    consecutive seeds cover every combination."""
    rng = _routed_rng(seed)
    if router is None:
        router = _random_router(rng)
    selection = _SELECTION[seed % len(_SELECTION)]
    sim = ServingSimulator(
        build_replay_cluster(
            toy,
            {"fast": int(rng.integers(1, 4)), "slow": int(rng.integers(1, 4))},
            selection_policy=selection() if selection else None,
        ),
        router=router,
        batching=BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if (seed // len(_SELECTION)) % 2
        else None,
        check_invariants=True,
        seed=seed,
        engine=engine,
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
    legacy_sim, n = _routed_session(seed, toy, "legacy")
    legacy = legacy_sim.drain()
    sim, _ = _routed_session(seed, toy, "columnar")
    columnar = sim.drain()
    assert sim.engine_used == "columnar"
    assert sim.fallback_reason is None
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

    legacy = [
        _routed_session(seed, toy, "legacy")[0].drain().digest()
        for seed in range(FAST_ROUTED)
    ]
    monkeypatch.setattr(ServingSimulator, "_route_submissions", swapped)
    caught = 0
    for seed in range(FAST_ROUTED):
        sim, _ = _routed_session(seed, toy, "columnar")
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
        sim, _ = _routed_session(
            3, toy, engine, router=_broken_router(broken)
        )
        with pytest.raises(error) as excinfo:
            sim.drain()
        messages.add(str(excinfo.value))
        assert sim.engine_used is None
        assert sim.fallback_reason is None
    assert len(messages) == 1

    sim, _ = _routed_session(
        3, toy, "columnar", router=_broken_router(broken),
        tolerances=(0.0, 0.01, 0.05),
    )
    report = sim.drain()
    assert sim.engine_used == "columnar" and sim.fallback_reason is None
    legacy_sim, _ = _routed_session(
        3, toy, "legacy", router=_broken_router(broken),
        tolerances=(0.0, 0.01, 0.05),
    )
    assert_reports_identical(legacy_sim.drain(), report)


def test_routed_bulk_workload_digest_identical(toy):
    """``run()`` under a router is one annotation for the whole
    workload; explicit submissions beside it keep their own."""
    reports = {}
    for engine in ("legacy", "columnar"):
        router = _random_router(np.random.default_rng(11))
        sim = ServingSimulator(
            build_replay_cluster(toy, {"fast": 2, "slow": 2}),
            router=router,
            batching=BatchingConfig(max_batch_size=3, max_wait_s=0.02),
            check_invariants=True,
            seed=4,
            engine=engine,
        )
        for i, tolerance in enumerate((0.0, 0.01, 0.10, 0.05)):
            sim.submit(
                ServiceRequest(
                    f"early_{i}", toy.request_ids[i], tolerance=tolerance
                ),
                at_time=0.3 * i,
            )
        reports[engine] = sim.run(
            PoissonArrivals(5.0),
            60,
            tolerance=0.05,
            objective=Objective.COST,
            payload_ids=toy.request_ids,
        )
        assert sim.engine_used == engine
    assert_reports_identical(reports["legacy"], reports["columnar"])
    assert reports["columnar"].n_requests == 64


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
        sim, n = _routed_session(7, toy, engine, router=router)
        store = sim._store
        annotations = set(zip(store.tolerances, store.objectives))
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
    engine before any node, cursor or simulator state is written."""
    raised = {}
    for engine in ("legacy", "columnar"):
        cluster = build_replay_cluster(
            toy, {"fast": 2, "slow": 2}, selection_policy=RoundRobinPolicy()
        )
        sim = ServingSimulator(
            cluster, router=_response_time_only_router(), engine=engine
        )
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
        with pytest.raises((KeyError, ValueError)) as excinfo:
            sim.drain()
        raised[engine] = type(excinfo.value)
        if engine == "columnar":
            assert sim.engine_used is None and not sim._drained
            assert sim._remaining == 6 + len(bad)
            assert cluster.load_balancer._policy._cursor == {}
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
# engine-boundary edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["legacy", "columnar"])
def test_zero_request_drain_raises_identically(engine, toy):
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 1}),
        configuration=EnsembleConfiguration("z", SingleVersionPolicy("fast")),
        engine=engine,
    )
    with pytest.raises(ValueError, match="at least one record"):
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
            engine=engine,
        )
        with pytest.raises(ValueError) as excinfo:
            sim.run(BadArrivals(), 3, payload_ids=toy.request_ids)
        errors[engine] = (str(excinfo.value), sim._counter, sim._remaining)
    assert errors["legacy"] == errors["columnar"]


@pytest.mark.parametrize("engine", ["legacy", "columnar"])
@pytest.mark.parametrize("at_time", [float("nan"), float("inf")])
def test_non_finite_arrival_time_is_refused_at_submit(engine, at_time, toy):
    """NaN passes ``at_time < now`` and used to end the drain in a bare
    "requests unresolved"; a refused batch schedules none of itself."""
    sim = ServingSimulator(
        build_replay_cluster(toy, {"fast": 1}),
        configuration=EnsembleConfiguration("f", SingleVersionPolicy("fast")),
        engine=engine,
    )
    requests = [ServiceRequest(f"r{i}", toy.request_ids[i]) for i in range(3)]
    sim.submit(requests[0], at_time=0.1)
    with pytest.raises(ValueError, match="cannot schedule at t="):
        sim.submit(requests[1], at_time=at_time)
    with pytest.raises(ValueError, match="cannot schedule at t="):
        sim.submit_batch(requests[1:], [0.2, at_time])
    report = sim.drain()
    assert sim.engine_used == engine
    assert [r.request_id for r in report.records] == ["r0"]


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
    report = run_scenario(spec, toy, engine="legacy")
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
