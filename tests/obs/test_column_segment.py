"""Spans stay columns: the column renderer equals the object renderer,
and a columnar run builds no tree until someone asks for one.

A :class:`ColumnSegment` must be indistinguishable — digest and exported
bytes — from a collector fed the trees it stands for, and the bulk path
(``run_load -> digest() -> export_jsonl()``) must never build a
per-request :class:`Span`.  Counts, not clocks.
"""

import contextlib
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracle.scalar import loop
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy
from repro.obs import Span, Trace, TraceCollector
from repro.obs import reconstruct
from repro.obs.reconstruct import ColumnSegment
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.simulation import (
    PoissonArrivals,
    RecordColumns,
    build_replay_cluster,
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

# ----------------------------------------------------------------------
# renderer equivalence (property)
# ----------------------------------------------------------------------
#: Everything a template must treat as data, never as syntax.
_TEXT = st.text(alphabet=st.sampled_from('ab%"\\|é\x00{}='), max_size=5)
_PAYLOADS = st.one_of(_TEXT, st.integers(), st.none(), st.tuples(st.integers(), _TEXT))
_SECONDS = st.one_of(
    st.sampled_from([0.0, 0.125, 1.0 / 3.0, 2.5]), st.floats(min_value=0.0, max_value=50.0)
)
_CONFIDENCE = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_ROW = st.tuples(
    _TEXT,  # request id (made unique below)
    _PAYLOADS,
    st.floats(min_value=0.0, max_value=0.2),  # tier
    st.floats(min_value=0.0, max_value=100.0),  # arrival_s
    _SECONDS,  # queue_wait_s: 0.0 collapses queue-wait onto the arrival
    _SECONDS,  # service time: small ones clamp fast_end onto finished_s
    _SECONDS,  # node_seconds_fast
    st.one_of(st.just(-1.0), _SECONDS),  # node_seconds_accurate
    _CONFIDENCE,
    st.integers(min_value=0, max_value=3),  # retries
    # escalated, failed, shed, degraded, denied, annotated, nothing
    # billed, no confidence
    st.tuples(*[st.booleans()] * 8),
    st.integers(min_value=0, max_value=7),  # pair (folded onto the table)
)
_NAMES = st.text(alphabet=st.sampled_from('fs%"\\|é1.'), min_size=1, max_size=4)
#: At least two pairs, one of them single-version.
_TABLES = st.tuples(
    st.lists(st.tuples(_NAMES, _NAMES), min_size=1, max_size=3),
    _NAMES,
).map(lambda drawn: [*drawn[0], (drawn[1], None)])


@st.composite
def segments(draw, tag):
    """``(columns, failover annotations)`` of one columnar run."""
    pairs = draw(_TABLES)
    rows = draw(st.lists(_ROW, min_size=1, max_size=8))
    (
        ids, payloads, tier, arrival, wait, service, fast_s, accurate_s,
        confidence, retries, flags, pair,
    ) = zip(*rows)
    ids = [f"{tag}.{i}.{rid}" for i, rid in enumerate(ids)]
    escalated, failed, shed, degraded, denied, annotated, unbilled, unsure = zip(
        *flags
    )
    finite = draw(st.booleans())
    confidence = [
        0.5 if finite and not math.isfinite(c) else c for c in confidence
    ]
    arrival = np.array(arrival)
    columns = RecordColumns(
        request_ids=ids,
        payloads=list(payloads),
        tier=np.array(tier),
        arrival_s=arrival,
        finished_s=arrival + np.array(wait) + np.array(service),
        response_time_s=np.array(wait) + np.array(service),
        queue_wait_s=np.array(wait),
        escalated=np.array(escalated),
        invocation_cost=np.zeros(len(ids)),
        pairs=pairs,
        pair_code=np.array(pair, dtype=np.intp) % len(pairs),
        node_seconds_fast=np.where(unbilled, -1.0, fast_s),
        node_seconds_accurate=np.array(accurate_s),
        confidence=np.array(confidence),
        failed=np.array(failed),
        retries=np.array(retries, dtype=np.int64),
        shed=np.array(shed),
        degraded=np.array(degraded),
        retry_denied=np.array(denied),
        no_confidence=np.array(unsure),
        # Spans never read a result; a run that holds some must render.
        results=draw(st.sampled_from([None, list(ids)])),
    )
    failover = {}
    if draw(st.booleans()):
        failover = {
            rid: ("eu|%", 'us"é', 0.25)
            for rid, marked in zip(ids, annotated)
            if marked
        }
    return columns, failover


def _live_trace(request_id):
    """A tree no column could have produced (events, a ``node`` attr)."""
    leg = Span(name="leg", start_s=0.5, end_s=1.0, attrs={"node": "n1", "attempt": 1})
    return Trace(
        request_id=request_id,
        spans=[Span(name="request", start_s=0.0, end_s=1.0, attrs={"tier": 0.05}), leg],
    )


_ITEMS = st.lists(
    st.one_of(
        st.just("segment"),
        st.just("trace"),
        st.tuples(st.floats(0.0, 9.0), _TEXT, _TEXT, st.one_of(st.none(), _TEXT)),
    ),
    min_size=1,
    max_size=5,
).filter(lambda items: "segment" in items)


@st.composite
def runs(draw):
    """What one collector receives, in order: segments interleaved with
    live traces and run events."""
    return [
        draw(segments(tag=f"s{i}")) if item == "segment" else item
        for i, item in enumerate(draw(_ITEMS))
    ]


def _fed(run, *, as_segments):
    collector = TraceCollector()
    for i, item in enumerate(run):
        if item == "trace":
            collector.add_trace(_live_trace(f"live{i}"))
        elif len(item) == 4:
            collector.add_run_event(*item)
        elif as_segments:
            collector.add_segment(ColumnSegment(*item))
        else:
            for trace in ColumnSegment(*item).traces():
                collector.add_trace(trace)
    return collector


def _assert_columns_render_as_their_trees(run, tmp_path, column_path=contextlib.nullcontext):
    """Digest and exported bytes of the column path equal the object
    path's; both files load and verify.  ``column_path`` wraps only the
    column side, so a seeded mutant cannot also move the reference."""
    trees = _fed(run, as_segments=False)
    expected_digest = trees.digest()
    trees.export_jsonl(tmp_path / "trees.jsonl")
    with column_path():
        columns = _fed(run, as_segments=True)
        assert columns.digest() == expected_digest
        columns.export_jsonl(tmp_path / "columns.jsonl")
    assert (tmp_path / "columns.jsonl").read_bytes() == (
        tmp_path / "trees.jsonl"
    ).read_bytes()
    n = len(trees)
    assert len(columns) == n
    for name in ("columns.jsonl", "trees.jsonl"):
        loaded = TraceCollector.load_jsonl(tmp_path / name)
        assert len(loaded) == n and loaded.digest() == expected_digest


@settings(max_examples=150, deadline=None)
@given(run=runs())
def test_column_renderer_matches_object_renderer(run, tmp_path_factory):
    _assert_columns_render_as_their_trees(run, tmp_path_factory.mktemp("run"))


def _mutant_property(tmp_path, column_path):
    # Generate only: finding the failure is the point, shrinking it is not.
    return settings(
        max_examples=150, deadline=None, database=None, phases=[Phase.generate]
    )(
        given(run=runs())(
            lambda run: _assert_columns_render_as_their_trees(
                run, tmp_path, column_path
            )
        )
    )


def test_leg_status_that_ignores_escalation_is_caught(tmp_path, monkeypatch):
    """Teeth: a fast leg marked failed on an escalated request."""
    real = reconstruct._coarse_trace

    def mutant(request_id, spans, *, escalated, failed, **legs):
        trace = real(request_id, spans, escalated=escalated, failed=failed, **legs)
        if failed and len(trace.spans) > 2:
            trace.spans[2].status = "failed"
        return trace

    @contextlib.contextmanager
    def column_path():
        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "_coarse_trace", mutant)
            yield

    with pytest.raises(AssertionError):
        _mutant_property(tmp_path, column_path)()


def test_unclamped_fast_end_is_caught(tmp_path, monkeypatch):
    """Teeth: a fast leg allowed to end after its request finished."""

    def unclamped(columns):
        qw_end = columns.arrival_s + columns.queue_wait_s
        return qw_end, np.where(
            columns.escalated, qw_end + columns.node_seconds_fast, columns.finished_s
        )

    @contextlib.contextmanager
    def column_path():
        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "_stage_ends", unclamped)
            yield

    with pytest.raises(AssertionError):
        _mutant_property(tmp_path, column_path)()


def test_a_gather_that_reads_the_wrong_row_is_caught(tmp_path, monkeypatch):
    """Teeth: the digest streams of a segment read each drawn item one
    row late (the last row wraps to the first)."""
    real = reconstruct._gathered

    def mutant(items, counts, shape, table):
        return real(items, counts, shape, np.roll(table, 1, axis=1))

    @contextlib.contextmanager
    def column_path():
        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "_gathered", mutant)
            yield

    with pytest.raises(AssertionError):
        _mutant_property(tmp_path, column_path)()


def test_a_version_name_holding_a_sentinel_falls_back_to_the_trees(tmp_path):
    """The learned template checks itself on a second probe: when the
    literal text happens to contain a probe value, the segment declines
    and the collector renders the trees instead — same bytes."""
    n = 4
    ramp = np.arange(n, dtype=float)
    columns = RecordColumns(
        request_ids=[f"r{i}" for i in range(n)],
        payloads=list(range(n)),
        tier=np.full(n, 0.05),
        arrival_s=ramp,
        finished_s=ramp + 1.0,
        response_time_s=np.ones(n),
        queue_wait_s=np.full(n, 0.25),
        escalated=ramp % 2 == 0,
        invocation_cost=np.zeros(n),
        pairs=[("v2.12890625", "slow")],  # the probe's arrival, as json writes it
        pair_code=np.zeros(n, dtype=np.intp),
        node_seconds_fast=np.full(n, 0.5),
        node_seconds_accurate=np.where(ramp % 2 == 0, 0.4, -1.0),
        confidence=np.full(n, 0.9),
    )
    assert ColumnSegment(columns, {}).render() is None
    # The digest layout matches values, not text: a literal version name
    # never equals a float source.
    assert ColumnSegment(columns, {}).streams() is not None
    _assert_columns_render_as_their_trees([(columns, {})], tmp_path)


# ----------------------------------------------------------------------
# laziness and freshness (exact counts)
# ----------------------------------------------------------------------
@pytest.fixture
def built(monkeypatch):
    """Rows handed to ``_from_columns`` and spans built, per call."""
    calls = {"rows": [], "spans": 0}
    real_from_columns = reconstruct._from_columns

    class CountedSpan(Span):
        def __init__(self, *args, **kwargs):
            calls["spans"] += 1
            super().__init__(*args, **kwargs)

    def counting(columns):
        calls["rows"].append(len(columns))
        return real_from_columns(columns)

    monkeypatch.setattr(reconstruct, "_from_columns", counting)
    monkeypatch.setattr(reconstruct, "Span", CountedSpan)
    return calls


def _traced_run_load(toy, collector, *, engine="columnar", n=120):
    gateway = TierGateway(
        SimulatedBackend(build_replay_cluster(toy, {"fast": 2, "slow": 2}), seed=5),
        configuration=EnsembleConfiguration(
            "seq", SequentialPolicy("fast", "slow", 0.6)
        ),
        trace=collector,
    )
    with loop(engine):
        report = gateway.run_load(
            PoissonArrivals(3.0), n, payload_ids=toy.request_ids
        )
    assert report.engine_used == engine
    return report


def test_bulk_path_builds_no_request_tree(toy, built, tmp_path):
    collector = TraceCollector()
    report = _traced_run_load(toy, collector)
    assert len(collector) == len(report.columns) == 120
    assert built == {"rows": [], "spans": 0}, "recording is handing columns over"

    digest = collector.digest()
    collector.export_jsonl(tmp_path / "run.jsonl")
    # Only the probes the layouts are learned from were ever
    # materialized: two rows per tree shape, however long the run.
    assert built["rows"] and all(rows % 2 == 0 for rows in built["rows"])
    assert built["spans"] <= 4 * sum(built["rows"]) < 120
    assert len(collector._pending) == 1 and collector._traces == []

    # The first read materializes, exactly once ...
    probes = len(built["rows"])
    traces = collector.traces
    assert built["rows"][probes:] == [120]
    assert collector._pending == [] and len(traces) == 120
    # ... the objects are now the storage ...
    assert collector.traces is traces
    assert built["rows"][probes:] == [120]
    assert [t.request_id for t in traces] == report.columns.request_ids
    # ... and render to the very same bytes.
    assert collector.digest() == digest
    collector.export_jsonl(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == (
        tmp_path / "run.jsonl"
    ).read_bytes()
    assert len(built["rows"]) == probes + 1, "stored trees need no probe"


def test_a_materialized_span_is_never_served_from_a_cache(toy):
    collector = TraceCollector()
    _traced_run_load(toy, collector)
    before = collector.digest()
    collector.traces[7].spans[-1].attrs["version"] = "edited"
    assert collector.digest() != before


def test_add_trace_after_a_segment_keeps_completion_order(toy):
    collector = TraceCollector()
    report = _traced_run_load(toy, collector, n=20)
    collector.add_trace(_live_trace("late"))
    assert collector._pending == []
    assert [t.request_id for t in collector.traces] == [
        *report.columns.request_ids,
        "late",
    ]
    assert collector.trace_for("late") is collector.traces[-1]
    assert collector.trace_for(report.columns.request_ids[3]) is collector.traces[3]


def test_lookups_and_counters_see_a_pending_segment(toy):
    collector = TraceCollector()
    report = _traced_run_load(toy, collector, n=20)
    assert collector.trace_for(report.columns.request_ids[0]).request_id == (
        report.columns.request_ids[0]
    )
    fresh = TraceCollector()
    _traced_run_load(toy, fresh, n=20)
    assert len(fresh.traces) == 20
    assert fresh._pending == []


def test_only_a_columnar_run_ever_holds_a_segment(toy, tmp_path):
    legacy = TraceCollector()
    _traced_run_load(toy, legacy, engine="legacy", n=20)
    assert legacy._pending == [] and len(legacy._traces) == 20
    columnar = TraceCollector()
    _traced_run_load(toy, columnar, n=20)
    columnar.export_jsonl(tmp_path / "run.jsonl")
    loaded = TraceCollector.load_jsonl(tmp_path / "run.jsonl")
    assert loaded._pending == [] and len(loaded._traces) == 20
    assert loaded.digest() == columnar.digest()


def test_materialized_trees_hold_python_scalars(toy):
    """``_from_columns`` reads each column through ``.tolist()``."""
    collector = TraceCollector()
    _traced_run_load(toy, collector, n=20)
    for trace in collector.traces:
        for span in trace.spans:
            assert type(span.start_s) is float and type(span.end_s) is float
            for value in span.attrs.values():
                assert type(value) in (float, int, bool, str)


def test_bytes_are_what_the_object_path_wrote_before_segments(toy, tmp_path):
    """Digest and file hash of this exact run at the commit before
    segments existed (every span an object, rendered one by one)."""
    collector = TraceCollector()
    _traced_run_load(toy, collector)
    collector.export_jsonl(tmp_path / "run.jsonl")
    written = hashlib.sha256((tmp_path / "run.jsonl").read_bytes()).hexdigest()
    assert collector.digest() == (
        "265027f67f4e10279ff8f01e605f893abd6ea1a1cb5e8eed4e4915950f63216b"
    )
    assert written == (
        "62d4ab1d36a6471dac4226e6beabbad28dfab9163d28d7e71c7b4a157a228ee5"
    )


# ----------------------------------------------------------------------
# storage invariance: one digest whatever holds the spans
# ----------------------------------------------------------------------
def _canonical_run(name):
    def record(toy):
        collector = TraceCollector()
        spec = {**canonical_scenarios(), **chaos_scenarios()}[name]
        report = run_scenario(spec, toy, trace=collector)
        return collector, report.engine_used
    return record


def _annotated_segment(toy):
    """A columnar run handed over with failover annotations, as a region
    shard's recorder hands it: the segment must materialize."""
    collector = TraceCollector()
    _traced_run_load(toy, collector, n=40)
    (segment,) = collector._pending
    ids = segment.columns.request_ids
    failover = {rid: ("us-east", "eu-west", 0.125) for rid in ids[::3]}
    annotated = TraceCollector()
    annotated.add_segment(ColumnSegment(segment.columns, failover))
    return annotated, "columnar"


def _declining_segment(toy):
    """A columnar run whose JSON the columns cannot promise (a NaN
    confidence): the export renders trees, the digest stays columns."""
    collector = TraceCollector()
    _traced_run_load(toy, collector, n=40)
    (segment,) = collector._pending
    segment.columns.confidence[5] = math.nan
    assert segment.render() is None and segment.streams() is not None
    return collector, "columnar"


@pytest.mark.parametrize(
    "record, engine",
    [
        (_canonical_run("baseline"), "columnar"),
        (_canonical_run("node-crash"), "legacy"),
        (_annotated_segment, "columnar"),
        (_declining_segment, "columnar"),
    ],
    ids=["columnar-baseline", "scalar-fault-run", "failover-annotated", "declines-to-render"],
)
def test_one_digest_whatever_holds_the_spans(record, engine, toy, tmp_path):
    """The segment's digest, its materialized trees' and the digest of
    ``load_jsonl(export_jsonl(...))`` are one digest."""
    held, engine_used = record(toy)
    assert engine_used == engine
    as_held = held.digest()
    held.export_jsonl(tmp_path / "run.jsonl")
    loaded = TraceCollector.load_jsonl(tmp_path / "run.jsonl")
    materialized, _ = record(toy)
    traces = materialized.traces
    assert materialized._pending == []
    assert as_held == materialized.digest() == loaded.digest()
    if engine == "legacy":  # per-attempt trees, with their fault events
        assert any(span.events for trace in traces for span in trace.spans)
    if record is _annotated_segment:
        assert any(span.name == "failover-hop" for trace in traces for span in trace.spans)


def test_an_empty_segment_is_no_trace(tmp_path):
    empty = np.zeros(0)
    columns = RecordColumns(
        request_ids=[], payloads=[], tier=empty, arrival_s=empty,
        finished_s=empty, response_time_s=empty, queue_wait_s=empty,
        escalated=np.zeros(0, dtype=bool), invocation_cost=empty,
        pairs=[("fast", "slow")], pair_code=np.zeros(0, dtype=np.intp),
        node_seconds_fast=empty, node_seconds_accurate=empty, confidence=empty,
    )
    _assert_columns_render_as_their_trees([(columns, {})], tmp_path)
    assert _fed([(columns, {})], as_segments=True).digest() == TraceCollector().digest()


# ----------------------------------------------------------------------
# JSON string escaping
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    ["", "plain ids_01", 'a "quoted" id', "back\\slash", "tab\there", "nul\x00",
     "\x1f", "del\x7f", "é", "日本", "emoji \U0001F600", "%s %%"],
)
def test_escaping_only_what_needs_it_writes_what_json_writes(text):
    assert reconstruct.json_escaped([text]) == [json.dumps(text)[1:-1]]


def test_a_plain_string_skips_the_json_call(monkeypatch):
    escaped = []
    real = json.dumps
    monkeypatch.setattr(json, "dumps", lambda s: escaped.append(s) or real(s))
    assert reconstruct.json_escaped(["load_000001", 'q"', "img_7"]) == [
        "load_000001", 'q\\"', "img_7",
    ]
    assert escaped == ['q"']
