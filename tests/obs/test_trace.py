"""The span model: deterministic ids, digests, and the JSONL round-trip."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import TierError, TraceFileError
from repro.obs import Span, SpanEvent, Trace, TraceCollector
from repro.obs.trace import span_id_for, trace_id_for


def _trace(request_id="r1", *, node=None):
    root = Span(
        name="request",
        start_s=0.0,
        end_s=1.5,
        attrs={"tier": 0.05, "escalated": True, "retries": 0},
    )
    leg = Span(
        name="leg",
        start_s=0.1,
        end_s=1.5,
        attrs={"version": "fast", "leg": "fast"},
        events=[SpanEvent(0.4, "fault", "gray-slow")],
    )
    if node is not None:
        leg.attrs["node"] = node
    return Trace(request_id=request_id, spans=[root, leg])


class TestIds:
    def test_trace_id_is_a_pure_function_of_the_request_id(self):
        assert trace_id_for("load_000001") == trace_id_for("load_000001")
        assert trace_id_for("load_000001") != trace_id_for("load_000002")
        assert len(trace_id_for("x")) == 16

    def test_span_ids_depend_on_request_and_position(self):
        assert span_id_for("r", 0) != span_id_for("r", 1)
        assert span_id_for("r", 0) != span_id_for("q", 0)

    def test_seal_assigns_ids_and_parent_links(self):
        trace = _trace().seal()
        assert trace.trace_id == trace_id_for("r1")
        assert trace.spans[0].span_id == span_id_for("r1", 0)
        assert trace.spans[0].parent_id is None
        assert trace.spans[1].parent_id == trace.spans[0].span_id


class TestDigest:
    def test_digest_is_stable_across_collectors(self):
        a, b = TraceCollector(), TraceCollector()
        a.add_trace(_trace())
        b.add_trace(_trace())
        assert a.digest() == b.digest()

    def test_node_attribute_is_digest_excluded(self):
        """Node ids come from a process-global counter; two processes
        recording the same run disagree on them, so they cannot
        participate in the digest."""
        a, b = TraceCollector(), TraceCollector()
        a.add_trace(_trace(node="fast#0"))
        b.add_trace(_trace(node="fast#7"))
        assert a.digest() == b.digest()

    def test_any_other_attribute_changes_the_digest(self):
        a, b = TraceCollector(), TraceCollector()
        a.add_trace(_trace())
        changed = _trace()
        changed.spans[1].attrs["version"] = "slow"
        b.add_trace(changed)
        assert a.digest() != b.digest()

    def test_run_events_participate(self):
        a, b = TraceCollector(), TraceCollector()
        a.add_run_event(1.0, "fault:gray", "detail")
        b.add_run_event(1.0, "fault:gray", "other")
        assert a.digest() != b.digest()


class TestJsonlRoundTrip:
    def test_export_load_preserves_everything(self, tmp_path):
        collector = TraceCollector()
        collector.add_trace(_trace("r1"))
        collector.add_trace(_trace("r2"))
        collector.add_run_event(2.0, "control:shed", "over budget", "us")
        path = tmp_path / "run.jsonl"
        collector.export_jsonl(path)
        loaded = TraceCollector.load_jsonl(path)
        assert loaded.digest() == collector.digest()
        assert len(loaded) == 2
        assert loaded.run_events == collector.run_events
        assert loaded.trace_for("r2").root.attrs["tier"] == 0.05

    def test_truncated_file_is_rejected(self, tmp_path):
        collector = TraceCollector()
        collector.add_trace(_trace("r1"))
        collector.add_trace(_trace("r2"))
        path = tmp_path / "run.jsonl"
        collector.export_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            TraceCollector.load_jsonl(path)

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="bad header"):
            TraceCollector.load_jsonl(path)


class TestCorruptFiles:
    """Every way a file can be wrong raises one structured error that
    names the file and the 1-based line; nothing is skipped."""

    @staticmethod
    def _exported(tmp_path, n=3):
        collector = TraceCollector()
        for i in range(n):
            collector.add_trace(_trace(f"r{i}"))
        path = tmp_path / "run.jsonl"
        collector.export_jsonl(path)
        return path, path.read_text().splitlines()

    @staticmethod
    def _load_error(path):
        with pytest.raises(TraceFileError) as caught:
            TraceCollector.load_jsonl(path)
        error = caught.value
        assert isinstance(error, TierError) and isinstance(error, ValueError)
        assert error.path == str(path) and str(path) in str(error)
        assert f"line {error.line}" in str(error)
        return error

    @pytest.mark.parametrize("digest", ["missing", None, 5])
    def test_an_edited_file_without_a_digest_is_refused(self, tmp_path, digest):
        """Nothing else vouches for the spans: without a string digest an
        edited span would load as if it were the recorded run."""
        path, lines = self._exported(tmp_path)
        header = json.loads(lines[0])
        if digest == "missing":
            del header["digest"]
        else:
            header["digest"] = digest
        trace = json.loads(lines[2])
        trace["spans"][0]["end_s"] = 99.0
        lines[0], lines[2] = json.dumps(header), json.dumps(trace)
        path.write_text("\n".join(lines) + "\n")
        error = self._load_error(path)
        assert error.line == 1 and "digest" in error.reason

    def test_a_line_cut_mid_object_names_its_own_line(self, tmp_path):
        path, lines = self._exported(tmp_path)
        lines[2] = lines[2][:40]
        path.write_text("\n".join(lines) + "\n")
        error = self._load_error(path)
        assert error.line == 3
        assert "invalid JSON at column 41" in error.reason
        assert "line 1" not in error.reason

    def test_a_span_missing_a_field_names_the_field(self, tmp_path):
        path, lines = self._exported(tmp_path)
        trace = json.loads(lines[3])
        del trace["spans"][1]["start_s"]
        lines[3] = json.dumps(trace)
        path.write_text("\n".join(lines) + "\n")
        error = self._load_error(path)
        assert error.line == 4 and "start_s" in error.reason

    def test_an_empty_file_has_a_bad_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        error = self._load_error(path)
        assert error.line == 1 and "bad header" in error.reason

    def test_a_blank_line_is_not_skipped(self, tmp_path):
        path, lines = self._exported(tmp_path)
        path.write_text("\n".join([*lines[:2], "", *lines[2:]]) + "\n")
        assert self._load_error(path).line == 3

    def test_an_edited_count_is_caught_even_when_the_digest_holds(self, tmp_path):
        path, lines = self._exported(tmp_path)
        header = json.loads(lines[0])
        header["n_traces"] = 4
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        error = self._load_error(path)
        assert error.line == 4, "the last line the file has"
        assert "3 traces" in error.reason and "promises 4" in error.reason


#: Header keys the property deletes, one at a time.
_HEADER_KEYS = ("kind", "n_traces", "digest", "run_events")
_ANYWHERE = st.integers(min_value=0, max_value=2**32)
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(("truncate", "drop", "duplicate", "edit")), _ANYWHERE),
    st.tuples(st.just("unkey"), st.sampled_from(_HEADER_KEYS)),
)
#: A numeric token; group 1 is its leading digit.
_NUMBER = re.compile(rb"-?(\d)\d*(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(data: bytes, mutation) -> bytes:
    """``data`` with one mutation: cut at a byte offset, drop a line,
    duplicate a line, bump the leading digit of one numeric token, or
    delete one header key."""
    kind, where = mutation
    lines = data.splitlines(keepends=True)
    if kind == "truncate":
        return data[: where % len(data)]
    if kind == "drop":
        del lines[where % len(lines)]
    elif kind == "duplicate":
        lines.insert(where % len(lines), lines[where % len(lines)])
    elif kind == "edit":
        tokens = list(_NUMBER.finditer(data))
        i = tokens[where % len(tokens)].start(1)
        return data[:i] + b"%d" % ((data[i] - ord("0") + 1) % 10) + data[i + 1:]
    else:
        header = json.loads(lines[0])
        del header[where]
        lines[0] = (json.dumps(header, sort_keys=True) + "\n").encode()
    return b"".join(lines)


@pytest.fixture(scope="module")
def exported_run(tmp_path_factory):
    """An exported multi-trace file with run events: path, bytes, digest."""
    collector = TraceCollector()
    for i in range(4):
        trace = _trace(f"r{i}")
        for span in trace.spans:
            span.start_s += 0.25 * i
            span.end_s += 0.5 * i
        collector.add_trace(trace)
    collector.add_run_event(0.75, "fault:crash", "fast#0", None)
    collector.add_run_event(2.0, "control:shed", "over budget", "us")
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    collector.export_jsonl(path)
    return path, path.read_bytes(), collector.digest()


@settings(max_examples=200, deadline=None)
@example(mutation=("unkey", "digest"))
@given(mutation=_MUTATIONS)
def test_a_mutated_file_loads_as_the_recorded_run_or_not_at_all(
    mutation, exported_run
):
    """The loader's whole contract over single mutations: a
    ``TraceFileError``, or the recorded run (same digest, and a header
    that vouches for it) — never another exception, never another run."""
    path, data, digest = exported_run
    mutated = path.with_name("mutated.jsonl")
    mutated.write_bytes(_mutate(data, mutation))
    try:
        loaded = TraceCollector.load_jsonl(mutated)
    except TraceFileError:
        return
    assert loaded.digest() == digest
    assert json.loads(mutated.read_bytes().splitlines()[0])["digest"] == digest


class TestMetricsAndReplay:
    def test_arrival_times_are_sorted_root_starts(self):
        collector = TraceCollector()
        late = _trace("r-late")
        for span in late.spans:
            span.start_s += 3.0
            span.end_s += 3.0
        collector.add_trace(late)
        collector.add_trace(_trace("r-early"))
        assert collector.arrival_times() == [0.0, 3.0]

    def test_to_arrivals_replays_the_stream(self):
        import numpy as np

        collector = TraceCollector()
        collector.add_trace(_trace("r1"))
        arrivals = collector.to_arrivals()
        times = arrivals.times(1, np.random.default_rng(0))
        assert list(times) == [0.0]
