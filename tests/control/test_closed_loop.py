"""Closed-loop scenarios end to end: determinism, conservation, no-op-ness.

The three contracts this file pins:

1. **No-op**: ``control=None`` (and even an attached control plane that
   never acts) leaves every digest bit-identical to the open-loop
   engine — the PR 3/4 golden traces stand untouched.
2. **Determinism**: a closed-loop run (shedding, degrading, adapting)
   digests identically for the same spec and seed.
3. **Conservation**: with shedding active, submitted = completed +
   failed + shed, verified by the invariant checker and the report.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from oracle.scalar import scalar_loop
from oracle.telemetry_reference import ReferenceTelemetryHub
from test_telemetry_incremental import assert_same_snapshot

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import RequestValidationError
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlPlane,
    ControlSpec,
    SLOSpec,
    TelemetryHub,
    default_control_spec,
)
from repro.service.control import adaptor as adaptor_module
from repro.service.control import plane as plane_module
from repro.service.control.admission import ADMIT
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
    RetryPolicy,
    ScenarioSpec,
    ServingSimulator,
    SpikeArrivals,
    canonical_scenarios,
    run_scenario,
    scenario_measurements,
)
from repro.service.simulation.replay import build_replay_cluster
from repro.service.simulation.scenarios import build_simulator


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


@pytest.fixture(scope="module")
def specs():
    return canonical_scenarios()


def spike_spec(specs, control=None):
    return replace(
        specs["spike"],
        arrivals=SpikeArrivals(
            2.0, spike_start_s=10.0, spike_duration_s=15.0, spike_multiplier=8.0
        ),
        n_requests=300,
        control=control,
    )


def shed_control(target=1.5):
    return ControlSpec(
        window_s=5.0,
        tick_interval_s=0.25,
        slos=(
            SLOSpec(
                name="latency",
                max_p95_latency_s=target,
                breach_after=1,
                clear_after=8,
            ),
        ),
        admission=AdmissionSpec(policy="probabilistic", shed_probability=0.85),
    )


def adaptive_control(target=1.5):
    return ControlSpec(
        window_s=8.0,
        tick_interval_s=0.25,
        slos=(
            SLOSpec(
                name="latency",
                max_p95_latency_s=target,
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
    )


class TestNoOp:
    def test_control_none_digest_matches_open_loop(self, toy, specs):
        for name in ("baseline", "node-crash"):
            open_loop = run_scenario(specs[name], toy)
            explicit = run_scenario(
                replace(specs[name], control=None), toy, check_invariants=True
            )
            assert open_loop.digest() == explicit.digest(), name

    def test_unbreached_control_plane_changes_nothing(self, toy, specs):
        # A monitor-only control plane on a healthy scenario: telemetry
        # flows, SLOs never breach, admission never acts — behaviour
        # must digest identically to the open loop.
        quiet = ControlSpec(
            window_s=8.0,
            tick_interval_s=0.5,
            slos=(
                SLOSpec(
                    name="latency",
                    max_p95_latency_s=100.0,
                    breach_after=2,
                    clear_after=2,
                ),
            ),
            admission=AdmissionSpec(policy="probabilistic", shed_probability=1.0),
        )
        open_loop = run_scenario(specs["baseline"], toy)
        closed = run_scenario(
            replace(specs["baseline"], control=quiet), toy, check_invariants=True
        )
        assert open_loop.digest() == closed.digest()
        assert closed.n_shed == 0

    def test_summary_gains_control_fields_without_behaviour_change(
        self, toy, specs
    ):
        report = run_scenario(specs["baseline"], toy)
        summary = report.summary()
        assert summary["n_shed"] == 0
        assert summary["n_degraded"] == 0
        assert summary["n_control_events"] == 0


class TestDeterminism:
    def test_shedding_run_is_seed_deterministic(self, toy, specs):
        spec = spike_spec(specs, control=shed_control())
        first = run_scenario(spec, toy, check_invariants=True)
        second = run_scenario(spec, toy, check_invariants=True)
        assert first.n_shed > 0
        assert first.digest() == second.digest()

    def test_adaptive_run_is_seed_deterministic(self, toy, specs):
        spec = spike_spec(specs, control=adaptive_control())
        first = run_scenario(spec, toy, check_invariants=True)
        second = run_scenario(spec, toy, check_invariants=True)
        assert first.control_log, "the adaptive run must have acted"
        assert first.digest() == second.digest()

    def test_different_seeds_differ(self, toy, specs):
        spec = spike_spec(specs, control=shed_control())
        a = run_scenario(spec, toy)
        b = run_scenario(replace(spec, seed=spec.seed + 1), toy)
        assert a.digest() != b.digest()


class TestConservation:
    def test_shed_requests_conserved_and_unbilled(self, toy, specs):
        spec = spike_spec(specs, control=shed_control())
        report = run_scenario(spec, toy, check_invariants=True)
        assert report.n_requests == spec.n_requests
        n_ok = sum(
            1 for r in report.records if not r.failed and not r.shed
        )
        assert n_ok + report.n_failed + report.n_shed == spec.n_requests
        for r in report.records:
            if r.shed:
                assert not r.failed
                assert r.invocation_cost == 0.0
                assert not r.node_seconds
                assert r.versions_used == ()
        # Shed requests count against availability and goodput.
        assert report.availability == pytest.approx(
            1.0 - (report.n_failed + report.n_shed) / report.n_requests
        )

    def test_degraded_requests_marked_and_answered(self, toy, specs):
        spec = spike_spec(specs, control=adaptive_control())
        report = run_scenario(spec, toy, check_invariants=True)
        degraded = [r for r in report.records if r.degraded]
        assert degraded, "the degrade policy must have acted on this spike"
        for r in degraded:
            assert not r.shed
            if not r.failed:
                assert r.versions_used == ("fast",)

    def test_duplicate_id_rejected_even_when_shed(self, toy):
        # A repeated id is refused at the door, before admission is ever
        # consulted — even when admission would shed both arrivals.
        from repro.service.control.admission import (
            AdmissionAction,
            AdmissionDecision,
        )
        from repro.service.request import ServiceRequest
        from repro.service.simulation import ServingSimulator
        from repro.service.simulation.replay import build_replay_cluster

        class AlwaysShed:
            tick_interval_s = 1.0
            log = ()

            def admit(self, request, now, *, planned):
                return AdmissionDecision(AdmissionAction.SHED, reason="test")

            def observe(self, record, now=None):
                pass

            def observe_rows(self, rows):
                pass

            def on_tick(self, now):
                return None

        cluster = build_replay_cluster(toy, {"fast": 1, "slow": 1})
        simulator = ServingSimulator(
            cluster,
            configuration=canonical_scenarios()["baseline"].configuration,
            control=AlwaysShed(),
        )
        simulator.submit(
            ServiceRequest(request_id="dup", payload="r000"), at_time=0.0
        )
        simulator.submit(
            ServiceRequest(request_id="dup", payload="r000"), at_time=0.5
        )
        # Sheds resolve instantly, so by the second arrival the first is
        # no longer in flight; uniqueness is per run, not per moment.
        with pytest.raises(
            RequestValidationError, match="duplicate request id 'dup'"
        ):
            simulator.drain()
        assert simulator.engine_used is None

    def test_duplicate_inflight_id_rejected_before_shed(self, toy):
        # The same refusal when the first is still in flight at the
        # second's arrival and only the second would be shed.
        from repro.service.control.admission import (
            AdmissionAction,
            AdmissionDecision,
        )
        from repro.service.request import ServiceRequest
        from repro.service.simulation import ServingSimulator
        from repro.service.simulation.replay import build_replay_cluster

        class ShedSecond:
            tick_interval_s = 1.0
            log = ()

            def __init__(self):
                self.seen = 0

            def admit(self, request, now, *, planned):
                self.seen += 1
                if self.seen == 1:
                    return AdmissionDecision(AdmissionAction.ADMIT)
                return AdmissionDecision(AdmissionAction.SHED, reason="test")

            def observe(self, record, now=None):
                pass

            def observe_rows(self, rows):
                pass

            def on_tick(self, now):
                return None

        cluster = build_replay_cluster(toy, {"fast": 1, "slow": 1})
        simulator = ServingSimulator(
            cluster,
            configuration=canonical_scenarios()["baseline"].configuration,
            control=ShedSecond(),
        )
        simulator.submit(
            ServiceRequest(request_id="dup", payload="r000"), at_time=0.0
        )
        # Arrives while the first "dup" is still being served.
        simulator.submit(
            ServiceRequest(request_id="dup", payload="r000"), at_time=0.01
        )
        with pytest.raises(ValueError, match="duplicate request id"):
            simulator.drain()

    def test_closed_loop_under_faults_passes_invariants(self, toy, specs):
        spec = replace(
            specs["node-crash"],
            arrivals=PoissonArrivals(6.0),
            n_requests=200,
            faults=(
                NodeCrash(
                    at_s=6.0, version="slow", node_index=0, recover_at_s=30.0
                ),
            ),
            control=adaptive_control(target=2.5),
        )
        report = run_scenario(spec, toy, check_invariants=True)
        assert report.n_requests == spec.n_requests


def _live_plane(spec, toy):
    return ControlPlane.from_spec(
        spec.control,
        measurements=toy,
        configuration=spec.configuration,
        seed=spec.seed,
        deployed_versions=tuple(spec.pools),
    )


def _drain(spec, toy, plane):
    simulator = build_simulator(
        build_replay_cluster(toy, dict(spec.pools)),
        configuration=spec.configuration,
        measurements=toy,
        check_invariants=True,
        **{**spec.engine_fields(), "control": plane},
    )
    return simulator.run(spec.arrivals, spec.n_requests, payload_ids=toy.request_ids)


def _crash_spec(specs):
    return replace(
        specs["node-crash"],
        arrivals=PoissonArrivals(6.0),
        n_requests=200,
        faults=(
            NodeCrash(at_s=6.0, version="slow", node_index=0, recover_at_s=30.0),
        ),
        control=adaptive_control(target=2.5),
    )


def _row(r, now):
    """Record ``r`` as the ``publish_rows`` row the columnar loop feeds."""
    return (
        now, r.tier, r.shed, r.failed, r.degraded, r.response_time_s,
        r.invocation_cost, r.node_seconds,
    )


def _record_of(row):
    """A ``publish_rows`` row as the record the scalar loop would publish."""
    fields = (
        "finished_s", "tier", "shed", "failed", "degraded", "response_time_s",
        "invocation_cost", "node_seconds",
    )
    return SimpleNamespace(**dict(zip(fields, row)))


def _tap(plane):
    """Fold everything the plane's hub is fed into a hub spanning the
    whole run, and keep each feed call as ``(record, row)`` pairs: the
    scalar loop publishes one record at a time, the columnar loop hands
    over the rows finalized since the last tick (record ``None``)."""
    tap = TelemetryHub(window_s=1e9, max_records=None)
    feeds = []
    hub = plane.hub
    publish, publish_rows = hub.publish, hub.publish_rows

    def one(record, now=None):
        t = record.finished_s if now is None else now
        feeds.append([(record, _row(record, t))])
        publish(record, now)
        tap.publish(record, now)

    def many(rows):
        feeds.append([(None, row) for row in rows])
        publish_rows(rows)
        tap.publish_rows(rows)

    hub.publish, hub.publish_rows = one, many
    return tap, feeds


#: Closed-loop runs whose telemetry feed the tests below follow.
FEEDS = {
    "shed": lambda specs: spike_spec(specs, control=shed_control()),
    "adaptive": lambda specs: spike_spec(specs, control=adaptive_control()),
    "quiet": lambda specs: spike_spec(specs, control=shed_control(target=100.0)),
    "crash": _crash_spec,
}


class TestTelemetryFeed:
    """Whichever loop drains a closed-loop run, the plane's telemetry
    sees every finalized request once, in finalization order, stamped
    with its finalization time."""

    @pytest.mark.parametrize("feed", list(FEEDS))
    def test_a_run_long_window_holds_every_record(self, toy, specs, feed):
        """What the plane's hub is fed is the report's records, in order,
        each stamped no earlier than it finished; a hub spanning the
        whole run folds them: counts, cost mean, node-seconds
        and tiers all equal what the report says."""
        spec = FEEDS[feed](specs)
        plane = _live_plane(spec, toy)
        tap, feeds = _tap(plane)
        records = _drain(spec, toy, plane).records
        fed = [row for feed in feeds for _, row in feed]
        assert [row[1:] for row in fed] == [_row(r, None)[1:] for r in records]
        times = [row[0] for row in fed]
        assert times == sorted(times)
        assert all(
            t >= r.finished_s - 1e-9 for r, t in zip(records, times) if not r.failed
        )
        snap = tap.snapshot(max(r.finished_s for r in records))
        shed = [r for r in records if r.shed]
        failed = [r for r in records if r.failed and not r.shed]
        answered = [r for r in records if not r.failed and not r.shed]
        degraded = [r for r in answered if r.degraded]
        assert (snap.n, snap.n_shed, snap.n_failed, snap.n_degraded) == (
            len(records), len(shed), len(failed), len(degraded)
        )
        assert snap.p50_latency.n == len(answered)
        assert snap.mean_cost == pytest.approx(
            sum(r.invocation_cost for r in answered) / len(answered), rel=1e-12
        )
        billed = {}
        for r in answered:
            for version, seconds in r.node_seconds.items():
                billed[version] = billed.get(version, 0.0) + seconds
        assert snap.node_seconds == pytest.approx(billed, rel=1e-12)
        for tier, window in snap.tiers.items():
            assert window.n == sum(1 for r in records if r.tier == tier)

    @pytest.mark.parametrize("feed", list(FEEDS))
    def test_the_last_snapshot_read_after_the_drain_is_the_last_ticks(
        self, toy, specs, feed
    ):
        """Snapshot fields are computed on first read: the plane's last
        snapshot, read only after the drain has published past its tick,
        equals the reference walk taken at that tick."""
        spec = FEEDS[feed](specs)
        plane = _live_plane(spec, toy)
        hub = plane.hub
        reference = ReferenceTelemetryHub(hub.window_s)
        publish, publish_rows = hub.publish, hub.publish_rows

        def one(record, now=None):
            publish(record, now)
            reference.publish(record, now)

        def many(rows):
            publish_rows(rows)
            for row in rows:
                reference.publish(_record_of(row), row[0])

        hub.publish, hub.publish_rows = one, many
        at_ticks, on_tick = [], plane.on_tick

        def tick(now):
            at_ticks.append(reference.snapshot(now))
            return on_tick(now)

        plane.on_tick = tick
        _drain(spec, toy, plane)
        assert plane.last_snapshot.now == at_ticks[-1].now
        assert_same_snapshot(plane.last_snapshot, at_ticks[-1])

    def test_the_columnar_loop_hands_over_rows_once_per_tick(
        self, toy, specs, sim_loop
    ):
        spec = spike_spec(specs, control=shed_control())
        plane = _live_plane(spec, toy)
        _, feeds = _tap(plane)
        ticks, on_tick = [], plane.on_tick
        plane.on_tick = lambda now: ticks.append(now) or on_tick(now)
        report = _drain(spec, toy, plane)
        calls = [len(feed) for feed in feeds]
        assert sum(calls) == report.n_requests
        if sim_loop == "columnar":
            # One flush per tick, plus the one at drain end.
            assert len(calls) <= len(ticks) + 1 < report.n_requests
        else:
            assert calls == [1] * report.n_requests

    @pytest.mark.parametrize("feed", ["shed", "adaptive"])
    def test_rows_and_records_drive_the_plane_alike(self, toy, specs, feed):
        """The two feed forms — ``observe`` per record (scalar loop),
        ``observe_rows`` per tick (columnar loop) — fed one run's
        finalized requests reach the same SLO states, log and swaps."""
        spec = FEEDS[feed](specs)
        source = _live_plane(spec, toy)
        _, feeds = _tap(source)
        with scalar_loop():  # the loop that publishes records
            _drain(spec, toy, source)
        seen = [(record, row[0]) for feed in feeds for record, row in feed]
        assert len(seen) == spec.n_requests
        by_record, by_rows = _live_plane(spec, toy), _live_plane(spec, toy)
        interval, cursor, swaps = spec.control.tick_interval_s, 0, []
        now = interval
        while cursor < len(seen):
            batch = []
            while cursor < len(seen) and seen[cursor][1] <= now:
                batch.append(seen[cursor])
                cursor += 1
            for record, t in batch:
                by_record.observe(record, t)
            by_rows.observe_rows([_row(r, t) for r, t in batch])
            a, b = by_record.on_tick(now), by_rows.on_tick(now)
            assert (a and a.config_id) == (b and b.config_id), now
            swaps.append(a)
            assert by_record.state == by_rows.state, now
            now += interval
        assert by_record.log == by_rows.log
        assert by_record.log, "the replayed run must have acted"
        if feed == "adaptive":
            assert any(swap is not None for swap in swaps)


class _SwapOnce:
    """A duck-typed plane that admits everything and returns one
    configuration from its first tick."""

    tick_interval_s = 0.5
    log = ()
    gray_detector = None

    def __init__(self, swap):
        self.swap = swap
        self.ticks = []

    def admit(self, request, now, *, planned):
        return ADMIT

    def observe(self, record, now=None):
        pass

    def observe_rows(self, rows):
        pass

    def on_tick(self, now):
        self.ticks.append(now)
        swap, self.swap = self.swap, None
        return swap


def _simulator(toy, plane, **routing):
    return ServingSimulator(
        build_replay_cluster(toy, {"fast": 1, "slow": 1}),
        control=plane,
        check_invariants=True,
        **routing,
    )


def _single(version):
    return EnsembleConfiguration(f"cfg_{version}", SingleVersionPolicy(version))


class TestEngineSwaps:
    """The engine executes an adaptor swap: a swap it cannot serve fails
    the drain loudly, and a swap it can serve reaches later arrivals
    only."""

    @pytest.mark.parametrize(
        "case, match",
        [
            ("router", "router-driven"),
            ("undeployed-version", "undeployed version"),
            ("undeployed-leg", "undeployed version"),
        ],
    )
    def test_a_swap_the_engine_cannot_serve_fails_the_drain(
        self, toy, specs, case, match
    ):
        if case == "router":
            baseline = _single("slow")
            table = RoutingRuleTable(
                objective=Objective.RESPONSE_TIME, baseline=baseline, rules={}
            )
            routing = {"router": TierRouter({Objective.RESPONSE_TIME: table})}
            swap = _single("fast")
        else:
            routing = {"configuration": specs["baseline"].configuration}
            swap = _single("mid") if case == "undeployed-version" else (
                EnsembleConfiguration(
                    "cfg_fast_mid", SequentialPolicy("fast", "mid", 0.5)
                )
            )
        plane = _SwapOnce(swap)
        simulator = _simulator(toy, plane, **routing)
        for i in range(20):
            simulator.submit(
                ServiceRequest(request_id=f"s{i}", payload="r000"),
                at_time=0.1 * i,
            )
        with pytest.raises(ValueError, match=match):
            simulator.drain()
        assert plane.ticks == [0.5]

    def test_a_swap_serves_later_arrivals_only(self, toy):
        plane = _SwapOnce(_single("fast"))
        simulator = _simulator(toy, plane, configuration=_single("slow"))
        for i in range(20):
            simulator.submit(
                ServiceRequest(request_id=f"s{i}", payload=toy.request_ids[i]),
                at_time=0.1 * i + 0.05,
            )
        report = simulator.drain()
        assert plane.ticks[0] == 0.5
        for r in report.records:
            assert r.versions_used == (("slow",) if r.arrival_s < 0.5 else ("fast",))


class TestClosedLoopWins:
    """The headline behaviours (small-scale mirror of BENCH CTRL)."""

    def test_adaptation_beats_static_on_the_spike(self, toy, specs):
        static = run_scenario(spike_spec(specs), toy)
        adaptive = run_scenario(
            spike_spec(specs, control=adaptive_control()), toy
        )
        ns_static = sum(static.total_node_seconds.values())
        ns_adaptive = sum(adaptive.total_node_seconds.values())
        assert (
            adaptive.goodput_rps > static.goodput_rps
            or (
                adaptive.goodput_rps >= static.goodput_rps * 0.98
                and ns_adaptive < ns_static
            )
        )
        assert adaptive.p95_latency_s < static.p95_latency_s

    def test_shedding_caps_the_tail_on_the_spike(self, toy, specs):
        target = 1.5
        static = run_scenario(spike_spec(specs), toy)
        shed = run_scenario(
            spike_spec(specs, control=shed_control(target)), toy
        )
        assert static.p95_latency_s > target
        assert shed.p95_latency_s <= target

    def test_adaptor_candidates_restricted_to_deployed_versions(self, specs):
        # A measurement table usually covers more versions than any one
        # deployment hosts; a re-fit must never swap onto an ensemble
        # the cluster cannot serve (this crashed before the
        # deployed_versions restriction existed).
        import numpy as np

        from repro.service.measurement import MeasurementSet

        rng = np.random.default_rng(7)
        n = 50
        wide = MeasurementSet(
            service="three-version-toy",
            request_ids=tuple(f"r{i:03d}" for i in range(n)),
            versions=("fast", "mid", "slow"),
            error=np.column_stack(
                [
                    rng.uniform(0.1, 0.3, n),
                    rng.uniform(0.05, 0.15, n),
                    rng.uniform(0.0, 0.05, n),
                ]
            ),
            latency_s=np.column_stack(
                [np.full(n, 0.05), np.full(n, 0.15), np.full(n, 0.4)]
            ),
            confidence=np.column_stack(
                [rng.uniform(0.2, 1.0, n), np.full(n, 0.8), np.full(n, 0.95)]
            ),
            version_instances={
                "fast": "cpu.medium", "mid": "cpu.medium", "slow": "cpu.medium"
            },
        )
        # Pools deploy only fast+slow; "mid" exists in the table alone.
        spec = spike_spec(specs, control=adaptive_control())
        report = run_scenario(spec, wide, check_invariants=True)
        assert report.n_requests == spec.n_requests
        for entry in report.control_log:
            assert "mid" not in entry.detail
        for record in report.records:
            assert "mid" not in record.versions_used

    def test_default_control_spec_runs_all_canonical_scenarios(
        self, toy, specs
    ):
        # Every canonical scenario accepts a closed loop; quick smoke
        # over the two cheapest ones here (the bench sweeps them all).
        for name in ("baseline", "straggler"):
            spec = replace(
                specs[name],
                n_requests=60,
                control=default_control_spec(),
            )
            report = run_scenario(spec, toy, check_invariants=True)
            assert report.n_requests == 60


def _periodic_crash_spec():
    """A crash of one accurate node every 100 s under the adaptive plane
    (800 requests): each crash climbs the ladder and recovery walks it
    back down."""
    rate, cycle_s, n = 6.0, 100.0, 800
    crashes = tuple(
        NodeCrash(
            at_s=6.0 + cycle_s * k,
            version="slow",
            node_index=0,
            recover_at_s=30.0 + cycle_s * k,
        )
        for k in range(int((n / rate - 6.0) // cycle_s) + 1)
    )
    control = adaptive_control(target=2.5)
    control = replace(
        control, adaptor=replace(control.adaptor, tolerance_step=0.15)
    )
    return ScenarioSpec(
        name="periodic-crash-control",
        arrivals=PoissonArrivals(rate),
        n_requests=n,
        pools={"fast": 2, "slow": 2},
        configuration=EnsembleConfiguration(
            "scenario_seq", SequentialPolicy("fast", "slow", 0.6)
        ),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
        faults=crashes,
        control=control,
        seed=11,
    )


class TestRefitsAreLookups:
    """The rule generator runs once, when the plane is built; a refit
    only moves along the tolerance ladder it produced."""

    def test_one_rule_generator_per_adaptor(self, toy, monkeypatch):
        counts = {"generators": 0, "adaptors": 0}

        class CountingGenerator(adaptor_module.RoutingRuleGenerator):
            def __init__(self, *args, **kwargs):
                counts["generators"] += 1
                super().__init__(*args, **kwargs)

        class CountingAdaptor(adaptor_module.PolicyAdaptor):
            def __init__(self, *args, **kwargs):
                counts["adaptors"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(adaptor_module, "RoutingRuleGenerator", CountingGenerator)
        monkeypatch.setattr(plane_module, "PolicyAdaptor", CountingAdaptor)
        report = run_scenario(_periodic_crash_spec(), toy)
        refits = [
            entry for entry in report.control_log
            if entry.kind == "swap" or entry.kind.startswith("refit-")
        ]
        assert len(refits) >= 4
        assert counts == {"generators": 1, "adaptors": 1}
