"""Telemetry windows at their edges.

The hub keeps its window as one tuple per row, with the answered
latencies in one sorted list beside them (``nan`` ones only counted).
These tests pin the ranking against a fresh sort of the survivors, the
``max_records`` valve, and the boundary windows that must not change:
empty windows, one-row windows, windows holding a ``nan`` latency, and
all-shed windows where every percentile ranks over nothing.
"""

import math

import numpy as np
import pytest

from repro.service.control import TelemetryHub, guarded_percentile

from test_telemetry import record


class TestHubWindowParity:
    """Windowed percentiles rank exactly the surviving answered rows."""

    def test_snapshot_matches_list_based_ranking(self):
        hub = TelemetryHub(window_s=5.0)
        latencies = []
        for i in range(40):
            t = 0.2 * i
            response = 0.05 + 0.01 * (i % 7)
            shed = i % 5 == 0
            failed = i % 11 == 3
            hub.publish(
                record(
                    f"r{i}", t, response_time_s=response,
                    shed=shed, failed=failed and not shed,
                )
            )
            if not shed and not (failed and not shed):
                latencies.append((t, response))
        now = 0.2 * 39
        snap = hub.snapshot(now)
        survivors = [r for t, r in latencies if t >= now - 5.0]
        for q, estimate in (
            (50.0, snap.p50_latency),
            (95.0, snap.p95_latency),
            (99.0, snap.p99_latency),
        ):
            expect = guarded_percentile(survivors, q)
            assert estimate.value == expect.value
            assert estimate.n == expect.n == len(survivors)

    def test_ring_memory_valve_keeps_lockstep(self):
        hub = TelemetryHub(window_s=100.0, max_records=8)
        for i in range(20):
            hub.publish(record(f"r{i}", 0.1 * i, response_time_s=float(i)))
        assert len(hub) == 8
        snap = hub.snapshot(0.1 * 19)
        assert snap.n == 8
        assert snap.p95_latency.n == 8
        # the window holds exactly the 8 newest samples, ranked
        live = hub._rows[hub._head :]
        assert [row[3] for row in live] == [float(i) for i in range(12, 20)]
        assert hub._ranked == [float(i) for i in range(12, 20)]

    def test_empty_and_single_row_windows_rank_correctly(self):
        hub = TelemetryHub(window_s=5.0)
        empty = hub.snapshot(1.0).p95_latency
        assert math.isnan(empty.value) and empty.n == 0
        assert empty.low_confidence
        hub.publish(record("r0", 1.5, response_time_s=0.25))
        single = hub.snapshot(2.0).p95_latency
        assert single.value == 0.25 and single.n == 1
        assert single.low_confidence

    def test_a_nan_latency_ranks_to_nan_until_it_leaves(self):
        hub = TelemetryHub(window_s=5.0)
        hub.publish(record("r0", 0.5, response_time_s=math.nan))
        for i in range(1, 30):
            hub.publish(record(f"r{i}", 1.0 + 0.1 * i, response_time_s=0.1 * i))
        snap = hub.snapshot(4.0)
        assert math.isnan(snap.p50_latency.value) and snap.p50_latency.n == 30
        assert math.isnan(snap.tiers[0.0].p95_latency.value)
        later = hub.snapshot(6.0)  # the nan row (t = 0.5) has left
        assert later.p95_latency.n == 29
        assert later.p95_latency.value == guarded_percentile(
            [0.1 * i for i in range(1, 30)], 95.0
        ).value


class TestAllShedWindows:
    """Windows where admission shed everything: percentiles rank over an
    empty slice and must degrade gracefully, not explode."""

    @pytest.fixture
    def shed_hub(self):
        hub = TelemetryHub(window_s=10.0)
        for i in range(15):
            hub.publish(record(f"s{i}", 0.5 * i, shed=True, tier=0.1))
        return hub

    def test_all_shed_snapshot(self, shed_hub):
        snap = shed_hub.snapshot(7.0)
        assert snap.n == snap.n_shed == 15
        assert snap.n_answered == 0
        assert snap.availability == 0.0
        assert snap.goodput_rps == 0.0
        for estimate in (snap.p50_latency, snap.p95_latency, snap.p99_latency):
            assert math.isnan(estimate.value)
            assert estimate.n == 0
            assert estimate.low_confidence
        assert math.isnan(snap.mean_cost)

    def test_all_shed_tier_window(self, shed_hub):
        tier = shed_hub.snapshot(7.0).for_tier(0.1)
        assert tier.n == tier.n_shed == 15
        assert math.isnan(tier.p95_latency.value)
        assert tier.p95_latency.low_confidence
        assert math.isnan(tier.mean_cost)

    def test_recovery_after_all_shed_window(self, shed_hub):
        for i in range(30):
            shed_hub.publish(
                record(f"a{i}", 8.0 + 0.1 * i, response_time_s=0.2)
            )
        snap = shed_hub.snapshot(11.0)
        assert snap.n_answered == 30
        assert snap.p95_latency.n == 30
        assert not snap.p95_latency.low_confidence
        assert snap.p95_latency.value == pytest.approx(0.2)


def test_numpy_slice_input_to_guarded_percentile():
    """guarded_percentile accepts array slices without copying semantics
    changing: same estimates as the equivalent list."""
    values = np.linspace(0.01, 1.0, 64)
    view = values[10:50]
    from_view = guarded_percentile(view, 95.0)
    from_list = guarded_percentile(list(view), 95.0)
    assert from_view.value == from_list.value
    assert from_view.n == from_list.n == 40
