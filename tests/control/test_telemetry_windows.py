"""Zero-copy telemetry windows: the dense column buffer and its edges.

The hub keeps its numeric window in ``telemetry._FloatWindow``: parallel
``float64`` columns (the rows of one buffer) sharing a live region that
advances on eviction, each read as a zero-copy array slice.  These tests
pin the buffer mechanics (growth, in-place compaction, eviction, many-row
appends) and the boundary windows that must not change: empty windows,
one-element windows, and all-shed windows where every percentile ranks
over an empty slice.
"""

import math

import numpy as np
import pytest

from repro.service.control import TelemetryHub, guarded_percentile
from repro.service.control.telemetry import _FloatWindow

from test_telemetry import record


class TestFloatWindow:
    """The dense sliding-window buffer itself."""

    def test_append_evict_view(self):
        window = _FloatWindow(capacity=4)
        for value in (1.0, 2.0, 3.0):
            window.append(value)
        assert list(window.view()[0]) == [1.0, 2.0, 3.0]
        window.pop_oldest()
        assert list(window.view()[0]) == [2.0, 3.0]
        assert len(window) == 2

    def test_view_is_zero_copy(self):
        window = _FloatWindow(capacity=8)
        window.append(1.0)
        window.append(2.0)
        view = window.view()
        assert view.base is window._buf  # a slice, not a copy

    def test_geometric_growth_preserves_live_region(self):
        window = _FloatWindow(capacity=2)
        for value in range(100):
            window.append(float(value))
        assert len(window) == 100
        assert list(window.view()[0]) == [float(v) for v in range(100)]

    def test_compaction_reclaims_evicted_head(self):
        window = _FloatWindow(capacity=8)
        for value in range(8):
            window.append(float(value))
        for _ in range(6):  # leave 2 live, 6 dead
            window.pop_oldest()
        window.append(8.0)  # full buffer, >half dead: compacts in place
        assert window._buf.shape == (1, 8)  # no growth happened
        assert list(window.view()[0]) == [6.0, 7.0, 8.0]

    def test_many_row_append_fills_parallel_columns(self):
        window = _FloatWindow(2, capacity=2)
        window.append([[-1.0], [-2.0]])
        window.pop_oldest()
        window.append([np.arange(50.0), 2 * np.arange(50.0)])  # past double
        assert window._buf.shape == (2, 100)
        assert window.view().tolist() == [
            [float(v) for v in range(50)],
            [2.0 * v for v in range(50)],
        ]

    def test_empty_and_single_element_views_rank_correctly(self):
        window = _FloatWindow()
        empty = guarded_percentile(window.view()[0], 95.0)
        assert math.isnan(empty.value) and empty.n == 0
        assert empty.low_confidence
        window.append(0.25)
        single = guarded_percentile(window.view()[0], 95.0)
        assert single.value == 0.25 and single.n == 1
        assert single.low_confidence


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
        # the window holds exactly the 8 newest samples
        assert list(hub._rows.view()[3]) == [float(i) for i in range(12, 20)]


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
