"""Unit tests of the harness span recorder (fake clock, exact arithmetic)."""

import json

import pytest
from spans import SpanRecorder


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_nested_spans_subtract_only_direct_children():
    # outer 0..10, middle 1..9, inner 2..5
    rec = SpanRecorder("w", clock=FakeClock(0.0, 1.0, 2.0, 5.0, 9.0, 10.0))
    with rec.span("outer") as outer:
        with rec.span("middle") as middle:
            with rec.span("inner") as inner:
                pass
    assert (outer.parent, middle.parent, inner.parent) == (None, 0, 1)
    assert rec.self_time_s(inner) == 3.0
    assert rec.self_time_s(middle) == 8.0 - 3.0
    # The grandchild is inside the child: it is not subtracted twice.
    assert rec.self_time_s(outer) == 10.0 - 8.0
    assert sum(rec.self_times_by_name(outer).values()) == outer.duration_s


def test_sibling_spans_sum_by_name():
    # root 0..10 with back-to-back children 0..4 and 4..10 of the same name
    rec = SpanRecorder("w", clock=FakeClock(0.0, 0.0, 4.0, 4.0, 10.0, 10.0))
    with rec.span("root") as root:
        with rec.span("shard"):
            pass
        with rec.span("shard"):
            pass
    assert rec.self_time_s(root) == 0.0
    assert rec.self_times_by_name(root) == {"root": 0.0, "shard": 10.0}
    assert [s.name for s in rec.children(root)] == ["shard", "shard"]


def test_gapped_spans_leave_the_gaps_to_the_parent():
    # root 0..10, children 1..3 and 5..6: 7 s of the root is its own
    rec = SpanRecorder("w", clock=FakeClock(0.0, 1.0, 3.0, 5.0, 6.0, 10.0))
    with rec.span("root") as root:
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    assert rec.self_time_s(root) == 7.0
    assert rec.self_times_by_name(root) == {"root": 7.0, "a": 2.0, "b": 1.0}


def test_roots_subtrees_and_exceptions():
    rec = SpanRecorder("w", clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    with rec.span("first"):
        pass
    with pytest.raises(RuntimeError):
        with rec.span("second") as second:
            with rec.span("child"):
                raise RuntimeError("boom")
    # A raising block still closes its spans, and the stack unwinds.
    assert second.end_s == 5.0
    assert [s.name for s in rec.roots()] == ["first", "second"]
    assert [s.name for s in rec.subtree(second)] == ["second", "child"]
    assert rec.roots("first")[0].duration_s == 1.0


def test_dump_jsonl_round_trips(tmp_path):
    rec = SpanRecorder("steady_fixed", clock=FakeClock(0.0, 1.0, 3.0, 4.0))
    with rec.span("root"):
        with rec.span("leaf"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.dump_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {
            "workload": "steady_fixed",
            "index": 0,
            "parent": None,
            "name": "root",
            "start_s": 0.0,
            "end_s": 4.0,
            "self_s": 2.0,
        },
        {
            "workload": "steady_fixed",
            "index": 1,
            "parent": 0,
            "name": "leaf",
            "start_s": 1.0,
            "end_s": 3.0,
            "self_s": 2.0,
        },
    ]
