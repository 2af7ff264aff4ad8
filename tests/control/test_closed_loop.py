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

import pytest

from repro.core.errors import RequestValidationError
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlPlane,
    ControlSpec,
    SLOSpec,
    default_control_spec,
)
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
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
        assert simulator.engine_used is None and simulator.now == 0.0

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


class _RecordPlane:
    """A plane that takes finalized records one at a time: it has
    ``observe`` and no ``observe_rows``."""

    def __init__(self, plane):
        self._plane = plane
        self.tick_interval_s = plane.tick_interval_s
        self.log = plane.log
        self.admit = plane.admit
        self.on_tick = plane.on_tick
        self.observe_node = plane.observe_node
        self.seen = []

    def observe(self, record, now=None):
        self.seen.append((record, now))
        self._plane.observe(record, now)


class TestTelemetryFeed:
    """Whichever loop drains a closed-loop run, the plane's telemetry
    sees every finalized request once, in finalization order, stamped
    with its finalization time — as records where anyone asks for them."""

    def test_hub_hooks_see_every_record(self, toy, specs):
        spec = spike_spec(specs, control=adaptive_control())
        plane = _live_plane(spec, toy)
        seen = []
        plane.hub.subscribe(lambda record, t: seen.append((record, t)))
        report = _drain(spec, toy, plane)
        assert report.n_degraded > 0
        assert [record for record, _ in seen] == list(report.records)
        times = [t for _, t in seen]
        assert times == sorted(times)
        assert all(t >= r.finished_s - 1e-9 for r, t in seen if not r.failed)

    def test_a_plane_without_observe_rows_gets_records(self, toy, specs):
        spec = spike_spec(specs, control=shed_control())
        reference = _drain(spec, toy, _live_plane(spec, toy))
        plane = _RecordPlane(_live_plane(spec, toy))
        report = _drain(spec, toy, plane)
        assert report.n_shed > 0
        assert report.digest() == reference.digest()
        assert [record for record, _ in plane.seen] == list(report.records)


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
