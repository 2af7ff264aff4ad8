"""Tests for the discrete-event serving simulator.

Covers the virtual-clock event loop, arrival processes, node-level
submit/drain and batching, the autoscaler's triggers and floors, and the
end-to-end engine semantics of each ensemble kind under load.
"""

import numpy as np
import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.instances import get_instance_type
from repro.service.measurement import MeasurementSet
from repro.service.node import CallableVersion, ServiceNode, VersionResult
from repro.service.request import Objective
from repro.service.simulation import (
    Autoscaler,
    AutoscalerConfig,
    BatchingConfig,
    BurstyArrivals,
    DiurnalArrivals,
    EventLoop,
    PoissonArrivals,
    ServingSimulator,
    SpikeArrivals,
    ThunderingHerdArrivals,
    TraceArrivals,
    build_replay_cluster,
)


# ----------------------------------------------------------------------
# shared toy measurement set
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def toy_measurements():
    """Two versions: a fast/confident one and a slow/accurate one."""
    rng = np.random.default_rng(7)
    n = 50
    ids = tuple(f"r{i:03d}" for i in range(n))
    fast_conf = rng.uniform(0.2, 1.0, n)
    return MeasurementSet(
        service="toy",
        request_ids=ids,
        versions=("fast", "slow"),
        error=np.column_stack(
            [rng.uniform(0.1, 0.3, n), rng.uniform(0.0, 0.05, n)]
        ),
        latency_s=np.column_stack([np.full(n, 0.05), np.full(n, 0.4)]),
        confidence=np.column_stack([fast_conf, np.full(n, 0.95)]),
        version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
    )


def _config(policy):
    return EnsembleConfiguration(config_id="cfg", policy=policy)


def _simulate(measurements, policy, *, pools, rate=3.0, n=150, **kwargs):
    cluster = build_replay_cluster(measurements, pools)
    sim = ServingSimulator(
        cluster,
        configuration=_config(policy),
        seed=11,
        check_invariants=True,
        **kwargs,
    )
    return sim.run(
        PoissonArrivals(rate), n, payload_ids=measurements.request_ids
    )


# ----------------------------------------------------------------------
# event loop
# ----------------------------------------------------------------------
class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(2.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: fired.append("early"))
        loop.run()
        assert fired == ["early", "late"]
        assert loop.now == 2.0

    def test_ties_fire_in_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("a", "b", "c"):
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule_at(1.0, lambda: fired.append("cancelled"))
        loop.schedule_at(2.0, lambda: fired.append("kept"))
        event.cancel()
        loop.run()
        assert fired == ["kept"]

    def test_cannot_schedule_in_the_past(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: loop.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            loop.run()

    def test_events_may_schedule_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(
            1.0, lambda: loop.schedule(0.5, lambda: fired.append(loop.now))
        )
        loop.run()
        assert fired == [1.5]

    def test_relative_delay_must_be_non_negative(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="delay must be non-negative"):
            loop.schedule(-0.1, lambda: None)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_mean_rate(self):
        rng = np.random.default_rng(3)
        times = PoissonArrivals(10.0).times(5000, rng)
        assert np.all(np.diff(times) >= 0.0)
        rate = len(times) / times[-1]
        assert rate == pytest.approx(10.0, rel=0.1)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).times(0, np.random.default_rng(0))

    def test_bursty_is_sorted_and_faster_than_base(self):
        process = BurstyArrivals(2.0, 50.0, mean_calm_s=5.0, mean_burst_s=1.0)
        rng = np.random.default_rng(4)
        times = process.times(2000, rng)
        assert np.all(np.diff(times) >= 0.0)
        observed = len(times) / times[-1]
        assert observed > 2.0  # bursts push the average above the calm rate
        assert process.mean_rate == pytest.approx(10.0)

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(5.0, 2.0)  # burst slower than base

    def test_trace_replays_and_bounds(self):
        trace = TraceArrivals([0.0, 0.5, 1.5])
        rng = np.random.default_rng(0)
        assert list(trace.times(2, rng)) == [0.0, 0.5]
        with pytest.raises(ValueError):
            trace.times(4, rng)
        with pytest.raises(ValueError):
            TraceArrivals([1.0, 0.5])  # not sorted

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: BurstyArrivals(0.0, 5.0), "base_rate"),
            (
                lambda: BurstyArrivals(1.0, 5.0, mean_burst_s=0.0),
                "mean_burst_s",
            ),
            (
                lambda: SpikeArrivals(0.0, spike_start_s=1.0, spike_duration_s=1.0),
                "base_rate",
            ),
            (
                lambda: SpikeArrivals(1.0, spike_start_s=1.0, spike_duration_s=0.0),
                "spike_duration_s",
            ),
            (
                lambda: ThunderingHerdArrivals(
                    PoissonArrivals(1.0), start_s=-1.0, end_s=1.0
                ),
                "start_s",
            ),
            (
                lambda: ThunderingHerdArrivals(
                    PoissonArrivals(1.0), start_s=2.0, end_s=2.0
                ),
                "end_s must be greater than start_s",
            ),
            (
                lambda: ThunderingHerdArrivals(
                    PoissonArrivals(1.0), start_s=0.0, end_s=1.0, spread_s=-0.1
                ),
                "spread_s",
            ),
            (lambda: TraceArrivals([]), "at least one arrival"),
            (lambda: TraceArrivals([-0.5, 1.0]), "non-negative"),
        ],
        ids=[
            "bursty-rate",
            "bursty-phase",
            "spike-rate",
            "spike-duration",
            "herd-start",
            "herd-window",
            "herd-spread",
            "trace-empty",
            "trace-negative",
        ],
    )
    def test_invalid_processes_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize(
        "process,expected",
        [
            (PoissonArrivals(2.5), "PoissonArrivals(rate=2.5/s)"),
            (BurstyArrivals(2.0, 50.0), "BurstyArrivals(base=2/s, burst=50/s)"),
            (
                DiurnalArrivals(4.0, amplitude=0.25, period_s=30.0),
                "DiurnalArrivals(base=4/s, amplitude=0.25, period=30s)",
            ),
            (
                SpikeArrivals(3.0, spike_start_s=2.0, spike_duration_s=1.5),
                "SpikeArrivals(base=3/s, x5 at [2, 3.5]s)",
            ),
            (
                ThunderingHerdArrivals(PoissonArrivals(1.0), start_s=1.0, end_s=2.0),
                "ThunderingHerdArrivals(PoissonArrivals(rate=1/s), "
                "hold=[1, 2)s, spread=0.05s)",
            ),
            (TraceArrivals([0.0, 0.5, 1.5]), "TraceArrivals(n=3)"),
        ],
        ids=["poisson", "bursty", "diurnal", "spike", "herd", "trace"],
    )
    def test_repr_names_the_parameters(self, process, expected):
        assert repr(process) == expected

    def test_trace_length_is_its_arrival_count(self):
        trace = TraceArrivals([0.0, 0.5, 0.5, 1.5])
        assert len(trace) == 4
        assert len(trace.times(len(trace), np.random.default_rng(0))) == 4

    def test_herd_moves_held_arrivals_without_extra_draws(self):
        base = PoissonArrivals(20.0)
        herd = ThunderingHerdArrivals(base, start_s=0.5, end_s=1.0, spread_s=0.0)
        plain = base.times(60, np.random.default_rng(9))
        held = herd.times(60, np.random.default_rng(9))
        assert np.all(np.diff(held) >= 0.0)
        n_held = herd.held_count(plain)
        assert n_held > 0
        assert np.count_nonzero(held == 1.0) == n_held
        untouched = plain[(plain < 0.5) | (plain >= 1.0)]
        assert np.array_equal(held[held != 1.0], untouched)


# ----------------------------------------------------------------------
# batching model + node queueing primitives
# ----------------------------------------------------------------------
class TestBatching:
    def test_sublinear_batch_time(self):
        cfg = BatchingConfig(max_batch_size=8, latency_exponent=0.7)
        solo = [1.0, 1.0, 1.0, 1.0]
        wall = cfg.batch_service_time(solo)
        assert max(solo) <= wall < sum(solo)
        assert wall == pytest.approx(4.0 ** 0.7)

    def test_linear_exponent_recovers_serial_worst_case(self):
        cfg = BatchingConfig(max_batch_size=4, latency_exponent=1.0)
        assert cfg.batch_service_time([0.5, 0.5]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingConfig(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchingConfig(latency_exponent=1.5)
        with pytest.raises(ValueError):
            BatchingConfig(max_batch_size=2).batch_service_time([1.0] * 3)
        with pytest.raises(ValueError, match="at least one request"):
            BatchingConfig(max_batch_size=2).batch_service_time([])


def _echo_node(compute_seconds=1.0):
    def handler(request_id, payload):
        return VersionResult(
            request_id=request_id,
            version="v",
            output=payload,
            error=0.0,
            confidence=0.9,
            compute_seconds=compute_seconds,
        )

    return ServiceNode(
        CallableVersion("v", handler), get_instance_type("cpu.medium")
    )


class TestNodeQueueing:
    def test_process_matches_submit_drain(self):
        direct, queued = _echo_node(2.0), _echo_node(2.0)
        result, latency = direct.process("r1", "x")
        queued.submit("r1", "x")
        completion = queued.drain()[0]
        assert completion.result.output == result.output
        assert completion.service_time_s == pytest.approx(latency)
        assert direct.busy_seconds == pytest.approx(queued.busy_seconds)

    def test_drain_batches_fifo(self):
        node = _echo_node(1.0)
        for i in range(5):
            node.submit(f"r{i}", i)
        cfg = BatchingConfig(max_batch_size=4, latency_exponent=0.7)
        completions = node.drain(batching=cfg)
        assert [c.batch_size for c in completions] == [4, 4, 4, 4, 1]
        first_batch = completions[0]
        assert first_batch.service_time_s == pytest.approx(4.0 ** 0.7)
        assert first_batch.amortized_seconds == pytest.approx(4.0 ** 0.7 / 4)
        # the trailing single request starts after the batch finishes
        assert completions[4].started_at == pytest.approx(first_batch.finished_at)

    def test_cancel_removes_only_queued_work(self):
        node = _echo_node()
        node.submit("r1", None)
        assert node.cancel("r1") is True
        assert node.cancel("r1") is False
        assert node.queue_depth == 0

    def test_pop_batch_needs_a_positive_size(self):
        node = _echo_node()
        node.submit("r1", None)
        with pytest.raises(ValueError, match="max_size"):
            node.pop_batch(0)
        assert node.queue_depth == 1

    def test_execute_batch_refuses_an_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            _echo_node().execute_batch([])

    def test_a_dead_node_executes_nothing(self):
        node = _echo_node()
        node.submit("r1", None)
        batch = node.pop_batch()
        node.kill(now=0.0)
        with pytest.raises(RuntimeError, match="is dead"):
            node.execute_batch(batch)
        assert node.requests_served == 0

    def test_process_refuses_to_run_over_queued_work(self):
        node = _echo_node()
        node.submit("queued", None)
        with pytest.raises(RuntimeError, match=r"1 queued request\(s\)"):
            node.process("r2", None)
        assert [c.result.request_id for c in node.drain()] == ["queued"]


# ----------------------------------------------------------------------
# autoscaler decisions
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_scales_up_on_queue_depth(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_queue_depth=4.0))
        delta = scaler.decide(
            "v", n_nodes=2, queue_depth=10, utilization=0.5, now=10.0
        )
        assert delta == 1

    def test_scales_up_on_utilization(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_utilization=0.85))
        delta = scaler.decide(
            "v", n_nodes=2, queue_depth=0, utilization=0.9, now=10.0
        )
        assert delta == 1

    def test_respects_max_nodes(self):
        scaler = Autoscaler(AutoscalerConfig(max_nodes=2))
        delta = scaler.decide(
            "v", n_nodes=2, queue_depth=100, utilization=1.0, now=10.0
        )
        assert delta == 0

    def test_scale_down_floors_at_min_nodes(self):
        scaler = Autoscaler(AutoscalerConfig(min_nodes=2, cooldown_s=0.0))
        for tick in range(5):
            n = 4 - len(scaler.events)
            delta = scaler.decide(
                "v", n_nodes=n, queue_depth=0, utilization=0.0, now=float(tick)
            )
            if delta == -1:
                scaler.record(
                    "v", old_size=n, new_size=n - 1, now=float(tick), reason="idle"
                )
        # shrinks 4 -> 3 -> 2 and then holds the floor
        assert [e.new_size for e in scaler.events] == [3, 2]

    def test_cooldown_suppresses_flapping(self):
        scaler = Autoscaler(AutoscalerConfig(cooldown_s=5.0))
        scaler.record("v", old_size=1, new_size=2, now=0.0, reason="queue-depth")
        assert (
            scaler.decide("v", n_nodes=2, queue_depth=50, utilization=1.0, now=2.0)
            == 0
        )
        assert (
            scaler.decide("v", n_nodes=2, queue_depth=50, utilization=1.0, now=6.0)
            == 1
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(
                scale_down_utilization=0.9, scale_up_utilization=0.8
            )

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"scale_up_queue_depth": 0.0}, "scale_up_queue_depth"),
            ({"scale_up_utilization": 1.2}, "scale_up_utilization"),
            ({"evaluation_interval_s": 0.0}, "evaluation_interval_s"),
            ({"cooldown_s": -1.0}, "cooldown_s"),
        ],
    )
    def test_config_validation_names_the_field(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AutoscalerConfig(**kwargs)


# ----------------------------------------------------------------------
# the engine, end to end
# ----------------------------------------------------------------------
class TestServingSimulator:
    def test_single_version_low_load_has_no_queueing(self, toy_measurements):
        report = _simulate(
            toy_measurements,
            SingleVersionPolicy("fast"),
            pools={"fast": 2},
            rate=1.0,
            n=60,
        )
        assert report.n_requests == 60
        assert report.mean_queue_wait_s < 0.01
        assert report.mean_latency_s == pytest.approx(0.05, rel=0.05)
        assert report.escalation_rate == 0.0

    def test_latency_grows_with_offered_load(self, toy_measurements):
        slow = SingleVersionPolicy("slow")
        light = _simulate(
            toy_measurements, slow, pools={"slow": 2}, rate=1.0, n=150
        )
        heavy = _simulate(
            toy_measurements, slow, pools={"slow": 2}, rate=4.5, n=150
        )
        assert heavy.p95_latency_s > light.p95_latency_s
        assert heavy.mean_queue_wait_s > light.mean_queue_wait_s
        assert heavy.p99_latency_s >= heavy.p95_latency_s >= heavy.p50_latency_s

    def test_seq_escalates_and_bills_both_versions(self, toy_measurements):
        report = _simulate(
            toy_measurements,
            SequentialPolicy("fast", "slow", 0.6),
            pools={"fast": 2, "slow": 2},
            rate=2.0,
        )
        escalated = [r for r in report.records if r.escalated]
        accepted = [r for r in report.records if not r.escalated]
        assert escalated and accepted
        assert all(
            r.versions_used == ("fast", "slow") for r in escalated
        )
        assert all(r.versions_used == ("fast",) for r in accepted)
        # measured confidences drive escalation: the fraction matches the table
        expected = float(
            np.mean(toy_measurements.column("fast", "confidence") < 0.6)
        )
        assert report.escalation_rate == pytest.approx(expected, abs=0.1)

    def test_et_costs_at_most_conc(self, toy_measurements):
        kwargs = dict(pools={"fast": 2, "slow": 2}, rate=2.0, n=120)
        conc = _simulate(
            toy_measurements, ConcurrentPolicy("fast", "slow", 0.6), **kwargs
        )
        et = _simulate(
            toy_measurements,
            EarlyTerminationPolicy("fast", "slow", 0.6),
            **kwargs,
        )
        assert et.total_invocation_cost < conc.total_invocation_cost
        # both answer confident requests at the fast version's pace
        assert et.p50_latency_s <= conc.p50_latency_s + 1e-9

    def test_batch_timeout_flushes_partial_batch(self, toy_measurements):
        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        sim = ServingSimulator(
            cluster,
            configuration=_config(SingleVersionPolicy("fast")),
            batching=BatchingConfig(max_batch_size=32, max_wait_s=0.5),
            seed=0,
            check_invariants=True,
        )
        trace = TraceArrivals([0.0, 0.1])
        report = sim.run(trace, 2, payload_ids=toy_measurements.request_ids)
        # Neither request fills the batch; the timeout flushes both together
        # at t=0.5, so they finish at the same instant.
        finishes = sorted(r.finished_s for r in report.records)
        assert finishes[0] == pytest.approx(finishes[1])
        assert finishes[0] == pytest.approx(0.5 + 2 ** 0.7 * 0.05)

    def test_batching_raises_throughput_under_saturation(self, toy_measurements):
        kwargs = dict(pools={"slow": 1}, rate=8.0, n=120)
        unbatched = _simulate(
            toy_measurements, SingleVersionPolicy("slow"), **kwargs
        )
        batched = _simulate(
            toy_measurements,
            SingleVersionPolicy("slow"),
            batching=BatchingConfig(max_batch_size=8, max_wait_s=0.05),
            **kwargs,
        )
        assert batched.throughput_rps > unbatched.throughput_rps
        assert batched.p95_latency_s < unbatched.p95_latency_s

    def test_autoscaler_grows_overloaded_pool(self, toy_measurements):
        cluster = build_replay_cluster(toy_measurements, {"slow": 1})
        scaler = Autoscaler(
            AutoscalerConfig(
                max_nodes=6,
                scale_up_queue_depth=2.0,
                evaluation_interval_s=0.25,
                cooldown_s=0.0,
            )
        )
        sim = ServingSimulator(
            cluster,
            configuration=_config(SingleVersionPolicy("slow")),
            autoscaler=scaler,
            seed=5,
            check_invariants=True,
        )
        report = sim.run(
            PoissonArrivals(8.0), 150, payload_ids=toy_measurements.request_ids
        )
        ups = [e for e in report.scaling_events if e.new_size > e.old_size]
        assert ups, "overload should trigger at least one scale-up"
        assert max(e.new_size for e in report.scaling_events) <= 6

    def test_autoscaler_returns_to_min_after_burst(self, toy_measurements):
        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        scaler = Autoscaler(
            AutoscalerConfig(
                min_nodes=1,
                max_nodes=4,
                scale_up_queue_depth=1.0,
                scale_down_utilization=0.5,
                evaluation_interval_s=0.25,
                cooldown_s=0.0,
            )
        )
        sim = ServingSimulator(
            cluster,
            configuration=_config(SingleVersionPolicy("fast")),
            autoscaler=scaler,
            seed=6,
            check_invariants=True,
        )
        # a hard burst followed by a long quiet tail of stragglers
        burst = list(np.linspace(0.0, 0.5, 60)) + [3.0, 6.0, 9.0, 12.0]
        report = sim.run(
            TraceArrivals(burst),
            len(burst),
            payload_ids=toy_measurements.request_ids,
        )
        assert any(e.new_size > e.old_size for e in report.scaling_events)
        assert report.final_pool_sizes["fast"] == 1  # scaled back to the floor

    def test_warmed_cluster_does_not_trigger_spurious_scale_up(
        self, toy_measurements
    ):
        from repro.service.request import ServiceRequest

        cluster = build_replay_cluster(toy_measurements, {"fast": 2})
        # Accumulate pre-simulation busy time via the replay path.
        for rid in toy_measurements.request_ids[:20]:
            cluster.raw_dispatch(
                "fast", ServiceRequest(request_id=f"w_{rid}", payload=rid)
            )
        scaler = Autoscaler(
            AutoscalerConfig(
                max_nodes=6, evaluation_interval_s=0.5, cooldown_s=0.0
            )
        )
        sim = ServingSimulator(
            cluster,
            configuration=_config(SingleVersionPolicy("fast")),
            autoscaler=scaler,
            seed=3,
            check_invariants=True,
        )
        # Light load: a fresh cluster would produce zero scale-ups, and a
        # warmed one must not differ (the baseline is seeded at init).
        report = sim.run(
            PoissonArrivals(1.0), 40, payload_ids=toy_measurements.request_ids
        )
        assert not [
            e for e in report.scaling_events if e.new_size > e.old_size
        ]

    def test_et_cancel_rearms_flush_for_new_head(self, toy_measurements):
        from repro.core.router import RoutingRuleTable, TierRouter
        from repro.service.request import ServiceRequest

        # Custom table: fast confidence is 0.9 for "hi" and 0.1 for "lo".
        ids = ("hi", "lo")
        ms = MeasurementSet(
            service="t",
            request_ids=ids,
            versions=("fast", "slow"),
            error=np.zeros((2, 2)),
            latency_s=np.array([[0.01, 0.3], [0.01, 0.3]]),
            confidence=np.array([[0.9, 0.95], [0.1, 0.95]]),
            version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
        )
        et = EnsembleConfiguration(
            "et", EarlyTerminationPolicy("fast", "slow", 0.5)
        )
        fast_only = _config(SingleVersionPolicy("fast"))
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME,
            baseline=fast_only,
            rules={0.10: et},
        )
        sim = ServingSimulator(
            build_replay_cluster(ms, {"fast": 1, "slow": 1}),
            router=TierRouter({Objective.RESPONSE_TIME: table}),
            batching=BatchingConfig(max_batch_size=3, max_wait_s=0.5),
            seed=0,
            check_invariants=True,
        )
        # r1 (et, confident) arms the slow node's flush from t=0; r2 fills
        # the fast batch without touching the slow pool; r3 (et, not
        # confident) joins the slow queue at t=0.08.
        sim.submit(
            ServiceRequest("r1", "hi", tolerance=0.10), at_time=0.0
        )
        sim.submit(ServiceRequest("r2", "hi", tolerance=0.0), at_time=0.04)
        sim.submit(
            ServiceRequest("r3", "lo", tolerance=0.10), at_time=0.08
        )
        report = sim.drain()
        by_id = {r.request_id: r for r in report.records}
        assert by_id["r1"].versions_used == ("fast",)  # cancelled cleanly
        assert by_id["r3"].escalated
        # r1's cancellation must re-arm the flush from r3's enqueue time
        # (0.08 + 0.5), not fire the stale t=0.5 deadline armed by r1.
        slow_start = by_id["r3"].finished_s - 0.3
        assert slow_start == pytest.approx(0.58, abs=1e-6)

    def test_router_driven_tiering(self, toy_measurements):
        baseline = _config(SingleVersionPolicy("slow"))
        loose = EnsembleConfiguration(
            "cfg_loose", SequentialPolicy("fast", "slow", 0.5)
        )
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME,
            baseline=baseline,
            rules={0.10: loose},
        )
        router = TierRouter({Objective.RESPONSE_TIME: table})
        cluster = build_replay_cluster(
            toy_measurements, {"fast": 1, "slow": 1}
        )
        sim = ServingSimulator(
            cluster, router=router, seed=2, check_invariants=True
        )
        report = sim.run(
            PoissonArrivals(2.0),
            80,
            tolerance=0.10,
            payload_ids=toy_measurements.request_ids,
        )
        # the 10% tier rides the seq ensemble, not the baseline
        assert any(r.versions_used == ("fast",) for r in report.records)
        assert all(r.tier == 0.10 for r in report.records)

    def test_requires_exactly_one_of_router_or_configuration(
        self, toy_measurements
    ):
        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        with pytest.raises(ValueError):
            ServingSimulator(cluster)

    def test_simulation_after_replay_traffic(self, toy_measurements):
        from repro.service.request import ServiceRequest

        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        # Synchronous replay traffic advances node.busy_until on its own
        # clock; a fresh simulator must still run (it owns the timeline).
        for rid in toy_measurements.request_ids[:3]:
            cluster.raw_dispatch(
                "fast", ServiceRequest(request_id=f"warm_{rid}", payload=rid)
            )
        sim = ServingSimulator(
            cluster, configuration=_config(SingleVersionPolicy("fast")), seed=0
        )
        report = sim.run(
            PoissonArrivals(2.0), 10, payload_ids=toy_measurements.request_ids
        )
        assert report.n_requests == 10

    def test_simulator_refuses_cluster_with_queued_work(self, toy_measurements):
        from repro.service.request import ServiceRequest

        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        cluster.submit(
            "fast",
            ServiceRequest(
                request_id="stray", payload=toy_measurements.request_ids[0]
            ),
        )
        with pytest.raises(ValueError, match="queued work"):
            ServingSimulator(
                cluster, configuration=_config(SingleVersionPolicy("fast"))
            )

    def test_empty_payload_ids_rejected(self, toy_measurements):
        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        sim = ServingSimulator(
            cluster, configuration=_config(SingleVersionPolicy("fast")), seed=0
        )
        with pytest.raises(ValueError, match="payload_ids"):
            sim.run(PoissonArrivals(1.0), 5, payload_ids=[])

    def test_simulator_is_single_use(self, toy_measurements):
        cluster = build_replay_cluster(toy_measurements, {"fast": 1})
        sim = ServingSimulator(
            cluster,
            configuration=_config(SingleVersionPolicy("fast")),
            seed=0,
            check_invariants=True,
        )
        sim.run(PoissonArrivals(2.0), 10, payload_ids=toy_measurements.request_ids)
        with pytest.raises(ValueError, match="single-use"):
            sim.run(
                PoissonArrivals(2.0), 10, payload_ids=toy_measurements.request_ids
            )

    def test_deterministic_for_fixed_seed(self, toy_measurements):
        a = _simulate(
            toy_measurements, SingleVersionPolicy("fast"), pools={"fast": 2}
        )
        b = _simulate(
            toy_measurements, SingleVersionPolicy("fast"), pools={"fast": 2}
        )
        assert a.p95_latency_s == b.p95_latency_s
        assert a.total_invocation_cost == b.total_invocation_cost
