"""Telemetry window: ring-buffer eviction, aggregates, small-N guard."""

import math

import pytest

from repro.service.control import (
    MIN_PERCENTILE_SAMPLES,
    TelemetryHub,
    guarded_percentile,
)
from repro.service.simulation import RequestRecord


def record(
    request_id,
    finished_s,
    *,
    response_time_s=0.1,
    tier=0.0,
    failed=False,
    shed=False,
    degraded=False,
    cost=1e-5,
    node_seconds=None,
    payload=None,
):
    return RequestRecord(
        request_id=request_id,
        payload=payload if payload is not None else request_id,
        tier=tier,
        arrival_s=max(0.0, finished_s - response_time_s),
        finished_s=finished_s,
        response_time_s=response_time_s,
        queue_wait_s=0.0,
        versions_used=() if (failed or shed) else ("fast",),
        escalated=False,
        invocation_cost=0.0 if (failed or shed) else cost,
        node_seconds=dict(node_seconds or ({} if (failed or shed) else {"fast": response_time_s})),
        failed=failed,
        shed=shed,
        degraded=degraded,
    )


class TestGuardedPercentile:
    """The small-N window guard (degenerate-window behaviour)."""

    def test_empty_window_is_nan_and_flagged(self):
        est = guarded_percentile([], 95.0)
        assert math.isnan(est.value)
        assert est.n == 0
        assert est.low_confidence and not est.reliable

    def test_single_sample_is_flagged(self):
        est = guarded_percentile([0.5], 95.0)
        assert est.value == 0.5
        assert est.low_confidence

    def test_nineteen_samples_flagged_twenty_not(self):
        values = [float(i) for i in range(19)]
        assert guarded_percentile(values, 95.0).low_confidence
        values.append(19.0)
        est = guarded_percentile(values, 95.0)
        assert not est.low_confidence
        assert est.n == 20 == MIN_PERCENTILE_SAMPLES

    def test_pathological_small_window_is_not_trusted(self):
        # With 4 samples there is always exactly one "tail outlier" by
        # quantile definition — the guard must flag it, not rank it.
        est = guarded_percentile([0.1, 0.1, 0.1, 5.0], 95.0)
        assert est.value > 4.0
        assert est.low_confidence

    def test_custom_min_samples(self):
        assert not guarded_percentile([1.0, 2.0], 50.0, min_samples=2).low_confidence

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            guarded_percentile([1.0], 101.0)


class TestTelemetryHub:
    def test_window_evicts_old_records(self):
        hub = TelemetryHub(window_s=5.0)
        for i in range(10):
            hub.publish(record(f"r{i}", float(i)))
        snap = hub.snapshot(9.0)
        # Horizon is 4.0: records published at t in [4, 9] survive.
        assert snap.n == 6
        assert hub.total_published == 10

    def test_snapshot_trusts_percentiles_from_the_contract_minimum(self):
        """The hub has no sample-floor option: its windowed p95 is flagged
        below ``MIN_PERCENTILE_SAMPLES`` completions and trusted at it."""
        hub = TelemetryHub(window_s=50.0)
        for i in range(MIN_PERCENTILE_SAMPLES - 1):
            hub.publish(record(f"r{i:03d}", 60.0 + i * 0.1))
        thin = hub.snapshot(100.0).p95_latency
        assert thin.n == MIN_PERCENTILE_SAMPLES - 1 and thin.low_confidence
        hub.publish(record("last", 62.0))
        full = hub.snapshot(100.0).p95_latency
        assert full.n == MIN_PERCENTILE_SAMPLES and not full.low_confidence

    def test_publish_time_defaults_to_finished_s(self):
        hub = TelemetryHub(window_s=2.0)
        hub.publish(record("a", 1.0))
        hub.publish(record("b", 4.0))
        assert hub.snapshot(4.0).n == 1

    def test_out_of_order_publish_rejected(self):
        hub = TelemetryHub(window_s=5.0)
        hub.publish(record("a", 3.0))
        with pytest.raises(ValueError, match="out of order"):
            hub.publish(record("b", 1.0))

    def test_counts_and_availability(self):
        hub = TelemetryHub(window_s=10.0)
        hub.publish(record("ok1", 1.0))
        hub.publish(record("ok2", 2.0, degraded=True))
        hub.publish(record("bad", 3.0, failed=True))
        hub.publish(record("gone", 4.0, shed=True))
        snap = hub.snapshot(5.0)
        assert snap.n == 4
        assert snap.n_failed == 1
        assert snap.n_shed == 1
        assert snap.n_degraded == 1
        assert snap.n_answered == 2
        assert snap.availability == pytest.approx(0.5)
        # Shed and failed requests contribute no latency samples.
        assert snap.p95_latency.n == 2

    def test_node_seconds_burn_and_cost(self):
        hub = TelemetryHub(window_s=10.0)
        hub.publish(record("a", 1.0, node_seconds={"fast": 0.1, "slow": 0.4}))
        hub.publish(record("b", 2.0, node_seconds={"fast": 0.2}))
        snap = hub.snapshot(2.0)
        assert snap.node_seconds == pytest.approx({"fast": 0.3, "slow": 0.4})
        # Run younger than one window: rates normalise over now, not window.
        assert snap.span_s == pytest.approx(2.0)
        assert snap.node_seconds_per_s == pytest.approx(0.7 / 2.0)
        assert snap.mean_cost == pytest.approx(1e-5)

    def test_per_tier_breakdown(self):
        hub = TelemetryHub(window_s=10.0)
        hub.publish(record("a", 1.0, tier=0.0, response_time_s=0.1))
        hub.publish(record("b", 2.0, tier=0.05, response_time_s=0.9))
        hub.publish(record("c", 3.0, tier=0.05, shed=True))
        snap = hub.snapshot(3.0)
        assert set(snap.tiers) == {0.0, 0.05}
        loose = snap.for_tier(0.05)
        assert loose.n == 2 and loose.n_shed == 1
        assert loose.p95_latency.value == pytest.approx(0.9)
        # Unseen tiers come back empty rather than KeyError-ing.
        empty = snap.for_tier(0.5)
        assert empty.n == 0 and math.isnan(empty.p95_latency.value)

    def test_publish_is_a_plain_event_hook(self):
        # The producer-facing contract: hub.publish is a plain
        # callable(record, now), so producers need no import of this
        # package.
        hub = TelemetryHub(window_s=5.0)
        hook = hub.publish
        hook(record("a", 1.0), 1.0)
        assert len(hub) == 1

    def test_publish_stamps_a_record_with_now(self):
        # The stamp, not finished_s, is what the window evicts by.
        hub = TelemetryHub(window_s=5.0)
        hub.publish(record("b", 1.0))
        hub.publish(record("a", 1.0), 1.5)
        assert hub.snapshot(6.2).payloads == ("a",)
        assert hub.snapshot(6.6).n == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TelemetryHub(window_s=0.0)
        with pytest.raises(ValueError):
            TelemetryHub(window_s=float("nan"))
