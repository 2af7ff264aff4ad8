"""Post-hoc reconstruction: report columns == record by record, coarse shape."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from oracle.report_reference import confuses_none_with_nan, drops_the_sentinel
from oracle.scalar import loop
from repro.obs import TraceCollector, trace_from_record, traces_from_report
from repro.service.control import AdmissionSpec, ControlSpec, SLOSpec
from repro.service.simulation import (
    RecordColumns,
    SpikeArrivals,
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

REPORT_GOLDENS = Path(__file__).resolve().parents[1] / "service" / "golden"


def _specs():
    return {**canonical_scenarios(), **chaos_scenarios()}


def _closed_loop(policy):
    """A spike that breaches a tight latency SLO: the admission policy
    then sheds (``probabilistic``) or degrades (``degrade``) arrivals."""
    return replace(
        canonical_scenarios()["spike"],
        arrivals=SpikeArrivals(
            2.0, spike_start_s=10.0, spike_duration_s=15.0, spike_multiplier=8.0
        ),
        n_requests=300,
        control=ControlSpec(
            window_s=5.0,
            tick_interval_s=0.25,
            slos=(
                SLOSpec(
                    name="latency",
                    max_p95_latency_s=1.5,
                    breach_after=1,
                    clear_after=8,
                ),
            ),
            admission=AdmissionSpec(policy=policy, shed_probability=0.85),
        ),
    )


def _assert_report_traces_are_its_records_traces(report):
    """``traces_from_report`` against the single-record builder the
    synchronous gateway uses, span for span."""
    rebuilt = traces_from_report(report)
    assert len(rebuilt) == len(report.records)
    for trace, record in zip(rebuilt, report.records):
        expected = trace_from_record(record)
        assert trace.request_id == expected.request_id == record.request_id
        assert trace.spans == expected.spans, record.request_id


@pytest.fixture(scope="module")
def columnar_report(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    return report


def _digest_of(traces):
    collector = TraceCollector()
    for trace in traces:
        collector.add_trace(trace)
    return collector.digest()


class TestPathEquivalence:
    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    @pytest.mark.parametrize("name", sorted(_specs()))
    def test_report_traces_are_its_records_traces(self, name, engine, toy):
        """On a scalar-loop report the records are the engine's own, so
        this is the column renderer against an independent walk: failed
        rows (``flaky``, ``cascade``, ``retry-storm``) billed nothing
        and must not grow a ``leg`` span."""
        with loop(engine):
            report = run_scenario(_specs()[name], toy)
        _assert_report_traces_are_its_records_traces(report)
        digests = [
            _digest_of(traces)
            for traces in (
                traces_from_report(report),
                map(trace_from_record, report.records),
            )
        ]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "policy, outcome", [("probabilistic", "shed"), ("degrade", "degraded")]
    )
    def test_closed_loop_traces_are_its_records_traces(self, policy, outcome, toy):
        report = run_scenario(_closed_loop(policy), toy)
        assert report.control_log and report.summary()[f"n_{outcome}"] > 0
        _assert_report_traces_are_its_records_traces(report)

    def test_a_transposition_that_drops_the_sentinel_is_caught(
        self, toy, monkeypatch
    ):
        """Teeth: every failed row grows a phantom ``leg`` span, and the
        report no longer digests as its golden file."""
        monkeypatch.setattr(
            RecordColumns,
            "from_records",
            drops_the_sentinel(RecordColumns.from_records),
        )
        with loop("legacy"):  # the loop that transposes records
            report = run_scenario(_specs()["retry-storm"], toy)
        assert report.n_failed > 0
        with pytest.raises(AssertionError):
            _assert_report_traces_are_its_records_traces(report)
        golden = json.loads((REPORT_GOLDENS / "retry-storm.json").read_text())
        assert report.digest() != golden["digest"]

    def test_a_transposition_that_writes_none_as_nan_is_caught(
        self, toy, monkeypatch
    ):
        """Teeth: a failed request's root span grows a ``confidence``."""
        monkeypatch.setattr(
            RecordColumns,
            "from_records",
            confuses_none_with_nan(RecordColumns.from_records),
        )
        with loop("legacy"):  # the loop that transposes records
            report = run_scenario(_specs()["flaky"], toy)
        assert report.n_failed > 0
        with pytest.raises(AssertionError):
            _assert_report_traces_are_its_records_traces(report)


class TestCoarseShape:
    def test_every_request_gets_a_tree(self, columnar_report):
        traces = traces_from_report(columnar_report)
        assert len(traces) == len(columnar_report.records)
        by_id = {t.request_id: t for t in traces}
        for record in columnar_report.records:
            trace = by_id[record.request_id]
            assert trace.root.name == "request"
            assert trace.root.start_s == record.arrival_s
            assert trace.root.end_s == record.finished_s

    def test_escalated_requests_grow_an_escalate_span(self, columnar_report):
        traces = traces_from_report(columnar_report)
        by_id = {t.request_id: t for t in traces}
        escalated = [r for r in columnar_report.records if r.escalated]
        assert escalated, "baseline scenario should escalate some requests"
        for record in escalated:
            names = [s.name for s in by_id[record.request_id].spans]
            assert names == ["request", "queue-wait", "leg", "escalate"]

    def test_leg_windows_stay_inside_the_request(self, columnar_report):
        for trace in traces_from_report(columnar_report):
            root = trace.root
            for span in trace.spans[1:]:
                assert span.start_s >= root.start_s - 1e-12
                assert span.end_s <= root.end_s + 1e-12
