"""Columnar post-hoc reconstruction: vectorized == per-record, coarse shape."""

import pytest

from repro.obs import TraceCollector, trace_from_record, traces_from_report
from repro.obs.reconstruct import _from_record
from repro.service.simulation import (
    LoadTestReport,
    canonical_scenarios,
    run_scenario,
)


def _records_only(report):
    """The same report without its columns (forces the scalar path)."""
    return LoadTestReport(records=list(report.records))


@pytest.fixture(scope="module")
def columnar_report(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy, engine="columnar")
    assert report.engine_used == "columnar"
    return report


def _digest_of(traces):
    collector = TraceCollector()
    for trace in traces:
        collector.add_trace(trace)
    return collector.digest()


class TestPathEquivalence:
    def test_vectorized_and_scalar_paths_agree(self, columnar_report):
        vectorized = traces_from_report(columnar_report)
        scalar = traces_from_report(_records_only(columnar_report))
        assert _digest_of(vectorized) == _digest_of(scalar)
        assert len(vectorized) == len(scalar)

    def test_single_record_entry_point_matches(self, columnar_report):
        record = columnar_report.records[0]
        assert (
            _digest_of([trace_from_record(record)])
            == _digest_of([_from_record(record)])
        )


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
