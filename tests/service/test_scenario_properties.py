"""Randomized property-style tests over the scenario space.

Fifty seeded random :class:`ScenarioSpec`\\ s — random tier mixes, arrival
processes, batching, autoscaling, retry policies and fault schedules —
each asserting the engine's conservation laws hold (the invariant checker
runs inside every simulation) and that every submitted request resolves.
The fault-free slice additionally asserts zero behaviour drift: a spec
with no faults and no retries must reproduce, digest-for-digest, what a
plain engine run (no fault subsystem arguments at all) produces.

Seeds 0–19 run in the fast tier; the rest carry the ``slow`` marker and
run in CI's full tier (see pytest.ini / docs/SCENARIOS.md).

A hypothesis property over the same specs — with a control plane that
swaps and rolls back the configuration mid-run on half of them — pins the
record shape every report's columns rely on: a record names exactly the
versions it billed, two at most.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle.scalar import default_loop, scalar_loop
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlSpec,
    SLOSpec,
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
    run_scenario,
    scenario_measurements,
)

N_SPECS = 50
FAST_SPECS = 20


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


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
        return BurstyArrivals(
            rate, rate * 5.0, mean_calm_s=4.0, mean_burst_s=1.0
        )
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
    n_faults = int(rng.integers(1, 4))
    for _ in range(n_faults):
        version = str(rng.choice(versions))
        kind = rng.integers(0, 3)
        at = float(rng.uniform(0.5, 8.0))
        if kind == 0:
            recover = (
                at + float(rng.uniform(1.0, 6.0))
                if rng.uniform() < 0.7
                else None
            )
            faults.append(
                NodeCrash(
                    at_s=at,
                    version=version,
                    node_index=int(rng.integers(0, 3)),
                    recover_at_s=recover,
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


def _random_spec(seed, *, with_faults):
    rng = np.random.default_rng([seed, 20260728])
    policy = _random_policy(rng)
    versions = tuple(
        {v: None for v in policy.versions}  # ordered, unique
    )
    pools = {v: int(rng.integers(1, 4)) for v in versions}
    retry = (
        RetryPolicy(
            max_attempts=int(rng.integers(2, 4)),
            backoff_s=float(rng.uniform(0.0, 0.1)),
        )
        if with_faults
        else RetryPolicy()
    )
    return ScenarioSpec(
        name=f"random-{seed}",
        arrivals=_random_arrivals(rng),
        n_requests=int(rng.integers(30, 70)),
        pools=pools,
        configuration=EnsembleConfiguration(f"cfg_{seed}", policy),
        batching=BatchingConfig(
            max_batch_size=int(rng.integers(2, 6)),
            max_wait_s=float(rng.uniform(0.0, 0.1)),
        )
        if rng.uniform() < 0.5
        else None,
        autoscaler_config=AutoscalerConfig(
            min_nodes=1,
            max_nodes=int(rng.integers(3, 6)),
            scale_up_queue_depth=float(rng.uniform(1.0, 4.0)),
            evaluation_interval_s=float(rng.uniform(0.25, 1.0)),
            cooldown_s=float(rng.uniform(0.0, 1.0)),
        )
        if rng.uniform() < 0.4
        else None,
        retry=retry,
        faults=_random_faults(rng, versions) if with_faults else (),
        seed=seed,
    )


def _marked_seeds():
    return [
        pytest.param(seed, marks=pytest.mark.slow)
        if seed >= FAST_SPECS
        else seed
        for seed in range(N_SPECS)
    ]


@pytest.mark.parametrize("seed", _marked_seeds())
def test_random_faulty_scenarios_obey_invariants(seed, toy):
    """Invariants hold across the randomized fault-injection space."""
    spec = _random_spec(seed, with_faults=True)
    report = run_scenario(spec, toy, check_invariants=True)
    assert report.n_requests == spec.n_requests
    assert 0.0 <= report.availability <= 1.0
    assert report.total_retries >= 0
    # billed node-seconds stay non-negative and only name deployed pools
    for record in report.records:
        assert set(record.node_seconds) <= set(spec.pools)
        if record.failed:
            assert record.invocation_cost == 0.0


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_fault_free_specs_match_plain_engine_bit_for_bit(seed, toy):
    """No behaviour drift: the fault subsystem is invisible when unused."""
    spec = _random_spec(seed, with_faults=False)
    via_scenario = run_scenario(spec, toy, check_invariants=True)

    from repro.service.simulation import Autoscaler

    cluster = build_replay_cluster(toy, dict(spec.pools))
    plain = ServingSimulator(
        cluster,
        configuration=spec.configuration,
        batching=spec.batching,
        autoscaler=Autoscaler(spec.autoscaler_config)
        if spec.autoscaler_config is not None
        else None,
        seed=spec.seed,
    )
    direct = plain.run(
        spec.arrivals, spec.n_requests, payload_ids=toy.request_ids
    )
    assert via_scenario.digest() == direct.digest()
    assert via_scenario.total_retries == 0
    assert via_scenario.n_failed == 0


# ----------------------------------------------------------------------
# record shape: what RecordColumns.from_records relies on
# ----------------------------------------------------------------------
def _reconfiguring(spec):
    """``spec`` under a control plane that degrades arrivals and lets
    the online adaptor swap (and roll back) the configuration mid-run."""
    return replace(
        spec,
        control=ControlSpec(
            window_s=8.0,
            tick_interval_s=0.25,
            slos=(
                SLOSpec(
                    name="latency",
                    max_p95_latency_s=0.4,
                    breach_after=1,
                    clear_after=8,
                ),
            ),
            admission=AdmissionSpec(policy="degrade"),
            adaptor=AdaptorConfig(
                refit_interval_s=1.0,
                min_window_samples=15,
                degradation_mode="absolute",
                tolerance_step=0.06,
                max_tolerance=0.30,
                thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
            ),
        ),
    )


@settings(max_examples=60, deadline=None)
@example(seed=11, closed_loop=True)  # three swaps, two rollbacks
@given(seed=st.integers(min_value=0, max_value=2**20), closed_loop=st.booleans())
def test_every_scalar_loop_record_names_exactly_what_it_billed(
    seed, closed_loop, toy
):
    """``versions_used == tuple(node_seconds)``, two versions at most,
    no negative seconds — retries onto a replacement pool and mid-run
    reconfiguration included — so a record is one row of a ``(fast,
    accurate)`` pair table and needs no n-tuple."""
    spec = _random_spec(seed, with_faults=True)
    if closed_loop:
        spec = _reconfiguring(spec)
    with scalar_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "legacy"
    for record in report.records:  # the engine's own objects
        assert record.versions_used == tuple(record.node_seconds), record
        assert len(record.node_seconds) <= 2, record
        assert all(s >= 0.0 for s in record.node_seconds.values()), record
        if record.failed or record.shed:
            assert record.node_seconds == {}, record


def test_the_reconfiguring_control_plane_does_reconfigure(toy):
    spec = _reconfiguring(_random_spec(11, with_faults=True))
    report = run_scenario(spec, toy)
    kinds = {entry.kind for entry in report.control_log}
    assert {"swap", "rollback"} <= kinds
    assert len({record.versions_used for record in report.records}) >= 3


# ----------------------------------------------------------------------
# a closed loop whose pool never comes back still drains
# ----------------------------------------------------------------------
def test_closed_loop_drains_when_a_pool_never_comes_back(toy, monkeypatch):
    """Seed 33 crashes ``slow`` for good: once only parked requests are
    left, control ticks stop with the last other event and ``drain()``
    fails the parked requests there — not 10M ticks later at the valve
    (lowered here so the old behaviour fails in seconds, not minutes)."""
    from oracle.events import EventLoop
    from repro.service.simulation import engine as engine_module

    spec = _reconfiguring(_random_spec(33, with_faults=True))
    assert any(
        isinstance(fault, NodeCrash) and fault.recover_at_s is None
        for fault in spec.faults
    )
    monkeypatch.setattr(engine_module, "_MAX_EVENTS", 50_000)
    fired = {}
    last_other = [0.0]
    schedule_at = EventLoop.schedule_at

    def spying_schedule_at(self, time, action, *, kind=""):
        def spied():
            fired[kind] = fired.get(kind, 0) + 1
            if kind != "control":
                last_other[0] = self.now
            action()

        return schedule_at(self, time, spied, kind=kind)

    monkeypatch.setattr(EventLoop, "schedule_at", spying_schedule_at)
    with scalar_loop():  # the loop whose events the spy sees
        report = run_scenario(spec, toy, check_invariants=True)

    tick = spec.control.tick_interval_s
    assert fired["control"] <= last_other[0] / tick + 1
    assert sum(fired.values()) < 5_000
    failed = [record for record in report.records if record.failed]
    assert failed and len(report.records) == spec.n_requests
    for record in failed:
        assert record.finished_s <= last_other[0] + tick, record
    # The default path, whichever loop it takes, ends the run the same way.
    assert run_scenario(spec, toy, check_invariants=True).digest() == report.digest()


def test_a_drain_stopped_by_the_valve_raises_naming_what_is_pending(
    toy, monkeypatch
):
    from repro.service.simulation import engine as engine_module

    monkeypatch.setattr(engine_module, "_MAX_EVENTS", 10)
    spec = _random_spec(33, with_faults=True)  # 36 arrivals
    with scalar_loop(), pytest.raises(
        RuntimeError, match=r"10-event valve.*'arrival'.*pending"
    ):
        run_scenario(spec, toy)


def test_a_columnar_drain_stopped_by_the_valve_raises_naming_its_sources(
    toy, monkeypatch
):
    """The columnar loop counts what its event sources schedule (control
    and autoscale ticks, retries, fault restores) against the same
    valve, so a tick that re-arms forever raises instead of spinning."""
    from repro.service.simulation import engine as engine_module

    monkeypatch.setattr(engine_module, "_MAX_EVENTS", 10)
    spec = _reconfiguring(_random_spec(33, with_faults=True))
    with default_loop(), pytest.raises(
        RuntimeError, match=r"10-event valve with \[.*'tick'.*\] pending"
    ):
        run_scenario(spec, toy)


def test_serving_events_do_not_count_toward_the_columnar_valve(toy, monkeypatch):
    from repro.service.simulation import engine as engine_module

    spec = replace(_random_spec(34, with_faults=False), autoscaler_config=None)
    want = run_scenario(spec, toy).digest()
    monkeypatch.setattr(engine_module, "_MAX_EVENTS", 0)
    with default_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    assert report.digest() == want
