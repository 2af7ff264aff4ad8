"""Gray-failure detection: per-node divergence against pool peers.

A gray node passes every health check while silently serving slow — so
whole-stream SLOs barely move.  The detector compares per-node
service-time EWMAs against the pool median, debounced like an SLO
monitor, and folds a WARN/BREACH contribution into the plane state.
"""

import dataclasses

import pytest

from repro.contract import (
    GRAY_CLEAR_AFTER,
    GRAY_DETECT_AFTER,
    GRAY_EWMA_ALPHA,
    GRAY_MIN_SAMPLES,
    GRAY_RATIO_THRESHOLD,
)
from repro.service.control import (
    ControlPlane,
    ControlSpec,
    GrayDetectionSpec,
    GrayFailureDetector,
    SLOSpec,
    SLOState,
)


def make_spec(**kwargs):
    defaults = dict(
        ratio_threshold=1.5, min_samples=3, detect_after=2, clear_after=2
    )
    defaults.update(kwargs)
    return GrayDetectionSpec(**defaults)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"ratio_threshold": 1.0}, "ratio_threshold"),
        ({"ratio_threshold": 0.5}, "ratio_threshold"),
        ({"min_samples": 0}, "min_samples"),
        ({"detect_after": 0}, "detect_after"),
        ({"clear_after": 0}, "clear_after"),
        ({"state_on_detect": SLOState.OK}, "WARN or BREACH"),
    ],
)
def test_invalid_specs_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        make_spec(**kwargs)


# ----------------------------------------------------------------------
# the detector alone
# ----------------------------------------------------------------------
def feed(detector, node_id, service_time_s, n, version="fast"):
    for _ in range(n):
        detector.observe(node_id, version, service_time_s)


def test_divergent_node_is_flagged_after_debounce():
    detector = GrayFailureDetector(make_spec())
    feed(detector, "n1", 0.05, 5)
    feed(detector, "n2", 0.06, 5)
    feed(detector, "n3", 0.25, 5)  # ~4.5x the median

    first = detector.evaluate()
    assert first == [] and detector.state is SLOState.OK  # detect_after=2 debounces
    second = detector.evaluate()
    assert detector.state is SLOState.WARN
    (kind, detail), = second
    assert kind == "gray-detected"
    assert "fast" in detail and "n3" not in detail  # no node ids in the log


def test_ewma_folds_at_the_contract_alpha():
    detector = GrayFailureDetector(make_spec())
    detector.observe("n1", "fast", 1.0)  # the first completion seeds it
    detector.observe("n1", "fast", 2.0)
    assert detector._ewma[("fast", "n1")] == (
        GRAY_EWMA_ALPHA * 2.0 + (1.0 - GRAY_EWMA_ALPHA) * 1.0
    )


def test_default_spec_judges_at_the_contract_thresholds():
    """A default spec reads its ratio, sample floor and debounce from the
    contract: peers at 1.0 fix the pool median at 1.0."""

    def pool(gray_time, gray_samples):
        detector = GrayFailureDetector(GrayDetectionSpec())
        feed(detector, "n1", 1.0, GRAY_MIN_SAMPLES)
        feed(detector, "n2", 1.0, GRAY_MIN_SAMPLES)
        feed(detector, "n3", gray_time, gray_samples)
        return detector

    def ticks_until(detector, kind, limit=2 * GRAY_DETECT_AFTER + 2):
        for tick in range(1, limit + 1):
            if [k for k, _ in detector.evaluate()] == [kind]:
                return tick
        return None

    above, below = 1.1 * GRAY_RATIO_THRESHOLD, 0.9 * GRAY_RATIO_THRESHOLD
    gray = pool(above, GRAY_MIN_SAMPLES)
    assert ticks_until(gray, "gray-detected") == GRAY_DETECT_AFTER
    feed(gray, "n3", 1.0, 40)  # the node recovers
    assert ticks_until(gray, "gray-cleared") == GRAY_CLEAR_AFTER
    assert ticks_until(pool(below, GRAY_MIN_SAMPLES), "gray-detected") is None
    assert ticks_until(pool(above, GRAY_MIN_SAMPLES - 1), "gray-detected") is None


def test_flag_clears_after_recovery():
    detector = GrayFailureDetector(make_spec())
    feed(detector, "n1", 0.05, 5)
    feed(detector, "n2", 0.05, 5)
    feed(detector, "n3", 0.30, 5)
    detector.evaluate()
    detector.evaluate()
    assert detector.state is SLOState.WARN

    feed(detector, "n3", 0.05, 20)  # the node recovers
    assert detector.evaluate() == []  # clear_after=2 debounces
    (kind, detail), = detector.evaluate()
    assert kind == "gray-cleared"
    assert detector.state is SLOState.OK


def test_min_samples_gates_participation():
    detector = GrayFailureDetector(make_spec(min_samples=10))
    feed(detector, "n1", 0.05, 4)
    feed(detector, "n2", 0.50, 4)  # wildly divergent, but under-sampled
    for _ in range(5):
        assert detector.evaluate() == []
    assert detector.state is SLOState.OK


def test_single_node_pool_is_never_judged():
    detector = GrayFailureDetector(make_spec())
    feed(detector, "only", 9.0, 20)
    for _ in range(5):
        assert detector.evaluate() == []
    assert detector.state is SLOState.OK


def test_healthy_balanced_pool_is_never_flagged():
    detector = GrayFailureDetector(make_spec())
    for i in range(50):
        detector.observe("n1", "fast", 0.05 + 0.001 * (i % 3))
        detector.observe("n2", "fast", 0.05 + 0.001 * ((i + 1) % 3))
    for _ in range(10):
        assert detector.evaluate() == []


def test_breach_mode_contributes_breach_state():
    detector = GrayFailureDetector(
        make_spec(state_on_detect=SLOState.BREACH, detect_after=1)
    )
    feed(detector, "n1", 0.05, 5)
    feed(detector, "n2", 0.30, 5)
    detector.evaluate()
    assert detector.state is SLOState.BREACH


# ----------------------------------------------------------------------
# plane integration
# ----------------------------------------------------------------------
def make_plane(gray=None):
    return ControlPlane.from_spec(
        ControlSpec(
            window_s=8.0,
            tick_interval_s=0.5,
            slos=(SLOSpec(name="latency", max_p95_latency_s=100.0),),
            gray_detection=gray,
        ),
        seed=0,
    )


def test_observe_node_is_a_noop_without_detection():
    plane = make_plane(gray=None)
    assert plane.gray_detector is None
    plane.observe_node("n1", "fast", 0.5, 1.0)  # must not raise
    plane.on_tick(1.0)
    assert plane.state is SLOState.OK


def test_plane_folds_gray_state_and_logs_transitions():
    plane = make_plane(gray=make_spec())
    for _ in range(5):
        plane.observe_node("n1", "fast", 0.05, 0.5)
        plane.observe_node("n2", "fast", 0.30, 0.5)
    plane.on_tick(1.0)
    assert plane.state is SLOState.OK  # still debouncing
    plane.on_tick(1.5)
    assert plane.state is SLOState.WARN
    entries = [e for e in plane.log if e.kind == "gray-detected"]
    assert len(entries) == 1
    assert entries[0].time_s == 1.5
    assert "n2" not in entries[0].detail

    for _ in range(40):
        plane.observe_node("n2", "fast", 0.05, 2.0)
    plane.on_tick(2.0)
    plane.on_tick(2.5)
    assert plane.state is SLOState.OK
    assert [e.kind for e in plane.log].count("gray-cleared") == 1


def test_gray_breach_arms_admission_state():
    plane = make_plane(
        gray=make_spec(state_on_detect=SLOState.BREACH, detect_after=1)
    )
    for _ in range(5):
        plane.observe_node("n1", "fast", 0.05, 0.5)
        plane.observe_node("n2", "fast", 0.40, 0.5)
    plane.on_tick(1.0)
    assert plane.state is SLOState.BREACH


# ----------------------------------------------------------------------
# end to end: the gray-failure chaos scenario is actually caught
# ----------------------------------------------------------------------
def test_detects_injected_gray_failure_end_to_end():
    from repro.service.simulation import (
        chaos_scenarios,
        run_scenario,
        scenario_measurements,
    )

    toy = scenario_measurements()
    spec = dataclasses.replace(
        chaos_scenarios()["gray-failure"],
        name="gray-detected",
        control=ControlSpec(
            window_s=8.0,
            tick_interval_s=0.5,
            slos=(SLOSpec(name="latency", max_p95_latency_s=5.0),),
            # A 2-node pool's median is the mean of both nodes, so the
            # divergence ratio caps just below 2; 1.4 separates the
            # injected 3.3x slowdown from healthy noise.
            gray_detection=GrayDetectionSpec(
                ratio_threshold=1.4, min_samples=4, detect_after=2, clear_after=3
            ),
        ),
    )
    report = run_scenario(spec, toy, check_invariants=True)
    kinds = [e.kind for e in report.control_log]
    assert "gray-detected" in kinds
    assert "gray-cleared" in kinds
    detected_at = next(
        e.time_s for e in report.control_log if e.kind == "gray-detected"
    )
    gray = spec.faults[0]
    assert gray.at_s <= detected_at <= gray.until_s  # caught while active

    again = run_scenario(spec, toy, check_invariants=True)
    assert report.digest() == again.digest()
