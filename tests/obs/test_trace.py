"""The span model: deterministic ids, digests, and the JSONL round-trip."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.contract import CONTRACT_VERSION, TRACE_DIGEST_STREAMS
from repro.core.errors import TierError, TraceFileError
from repro.obs import Span, SpanEvent, Trace, TraceCollector
from repro.obs import trace as trace_module
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


def _digest_of(*traces):
    collector = TraceCollector()
    for trace in traces:
        collector.add_trace(trace)
    return collector.digest()


def _assert_node_is_digest_excluded():
    assert _digest_of(_trace(node="fast#0")) == _digest_of(_trace(node="fast#7"))


def _assert_attribute_kinds_are_digested():
    """A value's kind is part of it: ``1``, ``"1"``, ``True`` and
    ``"True"`` hash as four different attributes."""
    digests = set()
    for value in (1, "1", True, "True"):
        trace = _trace()
        trace.spans[1].attrs["attempt"] = value
        digests.add(_digest_of(trace))
    assert len(digests) == 4


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
        _assert_node_is_digest_excluded()

    def test_attribute_kinds_are_digested(self):
        _assert_attribute_kinds_are_digested()

    def test_a_float_subclass_digests_as_a_float(self, tmp_path):
        """A NumPy float is a float; a value of no digest kind (``None``)
        is its text, and loads back to the same digest."""
        numpy_float = _trace()
        numpy_float.spans[0].attrs["tier"] = np.float64(0.05)
        assert _digest_of(numpy_float) == _digest_of(_trace())
        collector = TraceCollector()
        odd = _trace()
        odd.spans[0].attrs["note"] = None
        collector.add_trace(odd)
        collector.export_jsonl(tmp_path / "run.jsonl")
        assert TraceCollector.load_jsonl(tmp_path / "run.jsonl").digest() == collector.digest()
        assert collector.digest() != _digest_of(_trace())

    def test_a_layout_that_keeps_node_is_caught(self, monkeypatch):
        """Teeth: the exclusion check fails on a stream layout that
        hashes ``node`` like any other attribute."""
        monkeypatch.setattr(trace_module, "_DIGEST_EXCLUDED_ATTRS", frozenset())
        with pytest.raises(AssertionError):
            _assert_node_is_digest_excluded()

    def test_a_layout_without_the_attribute_kind_is_caught(self, monkeypatch):
        """Teeth: the kind check fails on a stream layout that drops
        ``attr_kind`` (an int and its text would then collide)."""
        streams = tuple(n for n in trace_module.TRACE_DIGEST_STREAMS if n != "attr_kind")
        monkeypatch.setattr(trace_module, "TRACE_DIGEST_STREAMS", streams)
        with pytest.raises(AssertionError):
            _assert_attribute_kinds_are_digested()

    def test_trees_fill_exactly_the_contract_streams(self):
        assert set(trace_module.tree_streams([])) == set(TRACE_DIGEST_STREAMS)

    def test_an_event_moved_to_another_span_changes_the_digest(self):
        moved = _trace()
        moved.spans[0].events, moved.spans[1].events = moved.spans[1].events, []
        assert _digest_of(moved) != _digest_of(_trace())

    def test_a_wiggle_below_the_kept_bits_is_not_behaviour(self):
        wiggled = _trace()
        wiggled.spans[1].start_s = 0.1 * (1 + 2.0**-45)
        assert _digest_of(wiggled) == _digest_of(_trace())
        wiggled.spans[1].start_s = 0.1 * (1 + 2.0**-37)
        assert _digest_of(wiggled) != _digest_of(_trace())

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

    @pytest.mark.parametrize(
        "trace",
        [
            Trace("r1", [Span("request", 0, 1)]),
            Trace("r1", [Span("request", 0.0, 1.0, events=[SpanEvent(1, "fault")])]),
        ],
        ids=["int-span-times", "int-event-time"],
    )
    def test_integer_times_load_as_the_recorded_run(self, tmp_path, trace):
        """A timestamp is hashed as the float it loads as, whatever
        number type it was recorded as."""
        collector = TraceCollector()
        collector.add_trace(trace)
        collector.export_jsonl(tmp_path / "run.jsonl")
        loaded = TraceCollector.load_jsonl(tmp_path / "run.jsonl")
        assert loaded.digest() == collector.digest()
        (recorded,), (read,) = trace.spans, loaded.traces[0].spans
        times = [read.start_s, read.end_s, *(e.time_s for e in read.events)]
        assert all(type(t) is float for t in times)
        assert times == [recorded.start_s, recorded.end_s, *(e.time_s for e in recorded.events)]

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

    @pytest.mark.parametrize("written", [2, "missing"])
    def test_a_file_of_another_contract_is_refused_by_version(self, tmp_path, written):
        """A v2-era header, or one with no version, is refused on line 1
        naming both versions — not as a truncated or edited file."""
        path, lines = self._exported(tmp_path)
        header = json.loads(lines[0])
        if written == "missing":
            del header["contract_version"]
        else:
            header["contract_version"] = written
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        error = self._load_error(path)
        assert error.line == 1
        assert f"version {'none' if written == 'missing' else written}," in error.reason
        assert f"version {CONTRACT_VERSION}" in error.reason
        assert "truncated" not in error.reason

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

    def test_a_trace_without_spans_names_its_line(self, tmp_path):
        path, lines = self._exported(tmp_path)
        self._edit_trace(path, lines, 2, lambda t: t.update(spans=[]))
        error = self._load_error(path)
        assert error.line == 3 and "root span" in error.reason

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


    @staticmethod
    def _edit_trace(path, lines, index, edit):
        """Rewrite line ``index`` (0-based) through ``edit(trace_dict)``."""
        trace = json.loads(lines[index])
        edit(trace)
        lines[index] = json.dumps(trace, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

    def test_an_untouched_export_round_trips_its_ids(self, tmp_path):
        path, lines = self._exported(tmp_path)
        loaded = TraceCollector.load_jsonl(path)
        for line, trace in zip(lines[1:], loaded.traces):
            assert trace.to_dict() == json.loads(line)

    def test_a_forged_trace_id_is_refused(self, tmp_path):
        path, lines = self._exported(tmp_path)
        self._edit_trace(
            path, lines, 2, lambda t: t.update(trace_id=trace_id_for("r9"))
        )
        error = self._load_error(path)
        assert error.line == 3 and "trace_id" in error.reason

    def test_a_forged_span_id_is_refused_not_resealed(self, tmp_path):
        path, lines = self._exported(tmp_path)
        self._edit_trace(
            path, lines, 1, lambda t: t["spans"][1].update(span_id="0" * 16)
        )
        error = self._load_error(path)
        assert error.line == 2 and "span 1: span_id" in error.reason

    @pytest.mark.parametrize(
        "parent",
        [span_id_for("r1", 1), span_id_for("r0", 0), "f" * 16],
        ids=["itself", "another-trace", "forged"],
    )
    def test_a_parent_that_is_no_earlier_span_is_refused(self, tmp_path, parent):
        path, lines = self._exported(tmp_path)
        self._edit_trace(
            path, lines, 2, lambda t: t["spans"][1].update(parent_id=parent)
        )
        error = self._load_error(path)
        assert error.line == 3 and "span 1: parent_id" in error.reason

    def test_missing_ids_are_derived(self, tmp_path):
        path, lines = self._exported(tmp_path)

        def strip(trace):
            del trace["trace_id"]
            for span in trace["spans"]:
                span["span_id"] = ""
            trace["spans"][1]["parent_id"] = ""

        self._edit_trace(path, lines, 3, strip)
        loaded = TraceCollector.load_jsonl(path)
        trace = loaded.trace_for("r2")
        assert trace.trace_id == trace_id_for("r2")
        assert trace.spans[1].span_id == span_id_for("r2", 1)
        assert trace.spans[1].parent_id == trace.root.span_id

    def test_a_move_onto_another_earlier_span_still_loads(self, tmp_path):
        """The documented gap: parent links are not digested, so a span
        re-parented onto another earlier span of its trace is not caught."""
        collector = TraceCollector()
        trace = _trace("r0")
        trace.spans.insert(1, Span(name="queue-wait", start_s=0.0, end_s=0.1))
        collector.add_trace(trace)
        path = tmp_path / "run.jsonl"
        collector.export_jsonl(path)
        lines = path.read_text().splitlines()
        self._edit_trace(
            path,
            lines,
            1,
            lambda t: t["spans"][2].update(parent_id=span_id_for("r0", 1)),
        )
        assert TraceCollector.load_jsonl(path).digest() == collector.digest()


#: Header keys the property deletes, one at a time.
_HEADER_KEYS = ("kind", "contract_version", "n_traces", "digest", "run_events")
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
        collector = TraceCollector()
        collector.add_trace(_trace("r1"))
        arrivals = collector.to_arrivals()
        times = arrivals.times(1, np.random.default_rng(0))
        assert list(times) == [0.0]
