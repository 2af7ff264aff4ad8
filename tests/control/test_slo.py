"""SLO monitors: raw evaluation, hysteresis, and the small-N guard."""

import pytest

from repro.service.control import SLOMonitor, SLOSpec, SLOState, TelemetryHub
from repro.service.control.slo import worst_state

from test_telemetry import record


def snapshot_with(latencies, now=100.0, *, n_failed=0, window_s=50.0):
    hub = TelemetryHub(window_s=window_s)
    t = now - window_s + 1.0
    for i, latency in enumerate(latencies):
        hub.publish(record(f"r{i}", t + i * 1e-3, response_time_s=latency))
    for i in range(n_failed):
        hub.publish(record(f"f{i}", now - 1.0, failed=True))
    return hub.snapshot(now)


class TestSpecValidation:
    def test_needs_a_target(self):
        with pytest.raises(ValueError, match="no target"):
            SLOSpec(name="empty")

    def test_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            SLOSpec(name="", max_p95_latency_s=1.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", max_p95_latency_s=-1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", min_availability=1.5)
        with pytest.raises(ValueError):
            SLOSpec(name="x", max_p95_latency_s=1.0, breach_after=0)
        # NaN compares false both ways: a NaN target would never breach.
        with pytest.raises(ValueError, match="max_p95_latency_s"):
            SLOSpec(name="x", max_p95_latency_s=float("nan"))
        with pytest.raises(ValueError, match="max_cost_per_request"):
            SLOSpec(name="x", max_cost_per_request=float("nan"))


class TestHysteresis:
    def spec(self, **kw):
        defaults = dict(
            name="latency", max_p95_latency_s=1.0, breach_after=2, clear_after=3
        )
        defaults.update(kw)
        return SLOSpec(**defaults)

    def test_single_violating_window_does_not_breach(self):
        monitor = SLOMonitor(self.spec())
        bad = snapshot_with([2.0] * 30)
        status = monitor.evaluate(bad)
        assert status.raw_state is SLOState.BREACH
        assert status.state is not SLOState.BREACH

    def test_consecutive_violations_breach(self):
        monitor = SLOMonitor(self.spec())
        bad = snapshot_with([2.0] * 30)
        monitor.evaluate(bad)
        status = monitor.evaluate(bad)
        assert status.state is SLOState.BREACH
        assert status.transitioned

    def test_clearing_needs_consecutive_ok(self):
        monitor = SLOMonitor(self.spec())
        bad = snapshot_with([2.0] * 30)
        good = snapshot_with([0.1] * 30)
        monitor.evaluate(bad)
        monitor.evaluate(bad)
        assert monitor.evaluate(good).state is SLOState.BREACH
        assert monitor.evaluate(good).state is SLOState.BREACH
        status = monitor.evaluate(good)
        assert status.state is SLOState.OK
        assert status.transitioned

    def test_violation_resets_clear_streak(self):
        monitor = SLOMonitor(self.spec())
        bad = snapshot_with([2.0] * 30)
        good = snapshot_with([0.1] * 30)
        monitor.evaluate(bad)
        monitor.evaluate(bad)
        monitor.evaluate(good)
        monitor.evaluate(good)
        monitor.evaluate(bad)  # streak broken
        monitor.evaluate(good)
        monitor.evaluate(good)
        assert monitor.state is SLOState.BREACH

    def test_warn_band(self):
        monitor = SLOMonitor(self.spec(warn_ratio=0.9))
        warm = snapshot_with([0.95] * 30)
        status = monitor.evaluate(warm)
        assert status.state is SLOState.WARN
        assert status.raw_state is SLOState.WARN

    def test_availability_floor(self):
        spec = SLOSpec(
            name="avail", min_availability=0.9, breach_after=1, clear_after=1
        )
        monitor = SLOMonitor(spec)
        # 30 ok + 10 failed -> availability 0.75 < 0.9.
        status = monitor.evaluate(snapshot_with([0.1] * 30, n_failed=10))
        assert status.state is SLOState.BREACH
        assert status.pressures["availability"] > 1.0


class TestSmallNGuard:
    def test_low_confidence_p95_cannot_breach_alone(self):
        spec = SLOSpec(
            name="latency", max_p95_latency_s=1.0, breach_after=1, clear_after=1
        )
        monitor = SLOMonitor(spec)
        # 5 samples, all violating — but far below the 20-sample guard.
        status = monitor.evaluate(snapshot_with([3.0] * 5))
        assert status.raw_state is SLOState.WARN
        assert status.guarded
        assert monitor.state is not SLOState.BREACH

    def test_solid_metric_still_breaches_despite_thin_percentile(self):
        spec = SLOSpec(
            name="both",
            max_p95_latency_s=1.0,
            min_availability=0.9,
            breach_after=1,
            clear_after=1,
        )
        monitor = SLOMonitor(spec)
        # Availability is computed over all 15 requests — a solid count
        # violation — so the thin p95 does not veto the breach.
        status = monitor.evaluate(snapshot_with([3.0] * 5, n_failed=10))
        assert status.raw_state is SLOState.BREACH
        assert not status.guarded

    def test_sheds_do_not_count_against_availability(self):
        # The monitor triggers shedding; if its own sheds counted as
        # unavailability, one breach would latch the controller into
        # shedding healthy traffic forever.  Admitted traffic is what
        # the availability SLO judges.
        spec = SLOSpec(
            name="avail", min_availability=0.9, breach_after=1, clear_after=1
        )
        monitor = SLOMonitor(spec)
        hub = TelemetryHub(window_s=50.0)
        for i in range(30):
            hub.publish(record(f"ok{i}", 60.0 + i))
        for i in range(40):
            hub.publish(record(f"shed{i}", 95.0, shed=True))
        status = monitor.evaluate(hub.snapshot(100.0))
        # 30/70 raw availability, but 30/30 of admitted requests.
        assert status.state is SLOState.OK

    def test_empty_window_is_ok(self):
        spec = SLOSpec(
            name="latency", max_p95_latency_s=1.0, breach_after=1, clear_after=1
        )
        monitor = SLOMonitor(spec)
        hub = TelemetryHub(window_s=5.0)
        assert monitor.evaluate(hub.snapshot(10.0)).state is SLOState.OK


def test_worst_state_ordering():
    assert worst_state([]) is SLOState.OK
    assert worst_state([SLOState.OK, SLOState.WARN]) is SLOState.WARN
    assert (
        worst_state([SLOState.WARN, SLOState.BREACH, SLOState.OK])
        is SLOState.BREACH
    )
