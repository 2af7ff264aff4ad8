"""Post-hoc span reconstruction from finished reports.

A run with no fault schedule and no control plane never pays per-event
hooks — that is what keeps its hot path >10x over the scalar loop.
Traced, it reaches the collector as one :class:`ColumnSegment` — the
report's ``RecordColumns``
(every report has them, whichever engine ran) — and stays columns until
someone asks for a tree:

- ``digest()`` fills the digest streams from the columns by array
  operations (:meth:`ColumnSegment.streams`) and ``export_jsonl()``
  writes a segment at column rate, one ``%`` application per request
  (:meth:`ColumnSegment.render`);
- ``.traces`` / ``trace_for`` / ``add_trace`` materialize
  it through :func:`_from_columns` + ``seal``, after which the trees are
  the only storage (the segment is dropped, nothing is memoized);
- so does either path on what columns cannot promise: failover
  annotations (per-request strings; shards read ``.traces`` anyway) and,
  for the JSON text, non-finite floats (``json`` writes ``NaN`` where
  ``repr`` writes ``nan``).

Both layouts are *learned*, not written: the first row of each tree
shape present, on sentinel values, goes through the object path and
every sentinel found becomes a slot — in the JSON text
(:func:`~repro.obs.trace.trace_json`), and among the digest stream items
(:func:`~repro.obs.trace.tree_streams`).  Tree shape therefore keeps its
single definition, :func:`_from_columns`; the same row on other
sentinels checks each layout, and a mismatch (a sentinel inside a
version name, say) falls back to trees.

Reconstruction is **coarse** by design: the columns record when a
request arrived, how long it queued, when it finished, whether it
escalated and what each leg billed — not per-batch start/finish times.
The rebuilt tree is therefore ``request → queue-wait → leg(fast) →
escalate`` with leg ends *estimated* from billed node-seconds (clamped
to the finish time).  :func:`trace_from_record` builds the same tree
for one live :class:`RequestRecord` (the synchronous gateway has no
report) by transposing it to one-row columns first.
"""

from __future__ import annotations

import inspect
import json
import re
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.contract import TRACE_DIGEST_STREAMS
from repro.obs.trace import (
    NUMERIC_STREAMS,
    Span,
    Trace,
    span_id_for,
    trace_id_for,
    trace_json,
    tree_streams,
)
from repro.service.simulation.report import RecordColumns

__all__ = [
    "ColumnSegment",
    "failover_hop",
    "record_skeleton",
    "trace_from_record",
    "traces_from_report",
]


def _skeleton(
    *,
    payload: object,
    tier: float,
    arrival_s: float,
    finished_s: float,
    queue_wait_s: float,
    escalated: bool,
    retries: int,
    shed: bool,
    failed: bool,
    degraded: bool,
    retry_denied: bool,
    confidence: Optional[float],
) -> List[Span]:
    """The spans every derivation shares: the root, then ``queue-wait``
    unless the request was shed (it never queued)."""
    root = Span(
        name="request",
        start_s=arrival_s,
        end_s=finished_s,
        status="shed" if shed else "failed" if failed else "ok",
        attrs={
            "tier": float(tier),
            "payload": str(payload),
            "escalated": bool(escalated),
            "retries": int(retries),
        },
    )
    if degraded:
        root.attrs["degraded"] = True
    if retry_denied:
        root.attrs["retry_denied"] = True
    if confidence is not None:
        root.attrs["confidence"] = float(confidence)
    if shed:
        return [root]
    return [
        root,
        Span(name="queue-wait", start_s=arrival_s, end_s=arrival_s + queue_wait_s),
    ]


#: The per-request fields :func:`_skeleton` reads, named as on
#: ``RequestRecord`` (``RecordColumns`` only pluralises ``payloads``).
_SKELETON_FIELDS = tuple(inspect.signature(_skeleton).parameters)


def record_skeleton(record) -> List[Span]:
    """:func:`_skeleton` of one finished :class:`RequestRecord` — the
    base the live recorder hangs its attempt-level spans on."""
    return _skeleton(**{name: getattr(record, name) for name in _SKELETON_FIELDS})


def failover_hop(
    root: Span, home: str, served: str, extra_latency_s: float
) -> Span:
    """Stamp failover traffic's regions on ``root`` and return the
    zero-width ``failover-hop`` span linking them."""
    root.attrs["home_region"] = home
    root.attrs["served_region"] = served
    return Span(
        name="failover-hop",
        start_s=root.start_s,
        end_s=root.start_s,
        attrs={
            "home": home,
            "target": served,
            "extra_latency_s": extra_latency_s,
        },
    )


def _coarse_trace(
    request_id: str,
    spans: List[Span],
    *,
    escalated: bool,
    failed: bool,
    fast_version: Optional[str],
    fast_seconds: Optional[float],
    fast_end: float,
    accurate_version: Optional[str],
    accurate_seconds: Optional[float],
) -> Trace:
    """Hang the legs the columns can place on a request's skeleton."""
    if len(spans) == 1:  # shed: nothing ran
        return Trace(request_id=request_id, spans=spans)
    root, queue_wait = spans
    if fast_version is not None:
        leg = Span(
            name="leg",
            start_s=queue_wait.end_s,
            end_s=fast_end,
            status="failed" if failed and not escalated else "ok",
            attrs={"version": fast_version, "leg": "fast"},
        )
        if fast_seconds is not None:
            leg.attrs["seconds"] = float(fast_seconds)
        spans.append(leg)
    if escalated and accurate_version is not None:
        escalate = Span(
            name="escalate",
            start_s=fast_end,
            end_s=root.end_s,
            status="failed" if failed else "ok",
            attrs={"version": accurate_version, "leg": "accurate"},
        )
        if accurate_seconds is not None:
            escalate.attrs["seconds"] = float(accurate_seconds)
        spans.append(escalate)
    elif accurate_seconds is not None and accurate_version is not None:
        # Concurrent/early-termination policies bill the accurate leg
        # without an escalation stage; the columns cannot place it on
        # the clock, so it is recorded as billed time on the root.
        root.attrs["accurate_billed_s"] = float(accurate_seconds)
        root.attrs["accurate_version"] = accurate_version
    return Trace(request_id=request_id, spans=spans)


def _stage_ends(columns):
    """Queue-wait end and fast-leg end of every row, vectorized.

    Escalated requests: the fast leg ends (at the latest) when its
    billed seconds elapse after the queue releases it; never past the
    finish time.  Non-escalated requests end with the response.
    """
    qw_end = columns.arrival_s + columns.queue_wait_s
    fast_end = np.where(
        columns.escalated,
        np.minimum(qw_end + columns.node_seconds_fast, columns.finished_s),
        columns.finished_s,
    )
    return qw_end, fast_end


def _from_columns(columns) -> List[Trace]:
    # One ``.tolist()`` per column, then rows of Python scalars: reading
    # ``column[i]`` fourteen times a row costs more than the engine run.
    legs = (
        columns.pair_code, columns.node_seconds_fast,
        columns.node_seconds_accurate, columns.billed_accurate,
        _stage_ends(columns)[1], columns.nothing_billed, columns.no_confidence,
    )
    skeleton = (getattr(columns, name) for name in _SKELETON_FIELDS[1:])
    traces: List[Trace] = []
    for (
        request_id, payload, code, fast_s, accurate_s, billed, fast_end,
        nothing_billed, no_confidence, *row,
    ) in zip(
        columns.request_ids,
        columns.payloads,
        *(column.tolist() for column in (*legs, *skeleton)),
    ):
        fields = dict(zip(_SKELETON_FIELDS, (payload, *row)))
        if no_confidence:
            fields["confidence"] = None
        # Each row's legs are named by its own pair (routed runs mix
        # pairs); a row that billed nothing ran no leg to name.
        fast_version, accurate_version = (
            (None, None) if nothing_billed else columns.pairs[code]
        )
        traces.append(
            _coarse_trace(
                request_id,
                _skeleton(**fields),
                escalated=fields["escalated"],
                failed=fields["failed"],
                fast_version=fast_version,
                fast_seconds=fast_s,
                fast_end=fast_end,
                accurate_version=accurate_version,
                accurate_seconds=accurate_s if billed else None,
            )
        )
    return traces


#: Requests rendered per step of :meth:`ColumnSegment.render`, and
#: gathered per step of :meth:`ColumnSegment.streams`: bound the
#: transient text, arrays and Python scalars however long the run was.
_RENDER_CHUNK_ROWS = 1024
_STREAM_CHUNK_ROWS = 4096

#: The probe row's float columns: odd multiples of 2**-8, so every value
#: and both derived stage ends (kept below ``finished_s``) are exact,
#: distinct, and long enough not to occur in a version name.
_PROBE_FLOATS = {
    "tier": 0.01171875,
    "arrival_s": 2.12890625,
    "finished_s": 7.83984375,
    "queue_wait_s": 0.3828125,
    "node_seconds_fast": 0.19140625,
    "confidence": 0.91015625,
}


class ColumnSegment:
    """One columnar run's traces, kept as ``RecordColumns`` plus the
    recorder's ``request id -> (home, served, extra_latency_s)`` failover
    annotations (life-cycle in the module docstring)."""

    def __init__(self, columns, failover) -> None:
        self.columns = columns
        self.failover = failover

    def __len__(self) -> int:
        return len(self.columns)

    def traces(self) -> List[Trace]:
        """The sealed span trees, in completion order."""
        traces = _from_columns(self.columns)
        for trace in traces:
            hop = self.failover.get(trace.request_id)
            if hop is not None:
                trace.spans.append(failover_hop(trace.root, *hop))
            trace.seal()
        return traces

    def _shapes(self):
        """Each row's tree-shape code, and the first row of each shape."""
        columns = self.columns
        # A tree's layout depends on nothing but what it billed (its
        # pair's legs, or nothing) and these flags.
        shape = columns.billed_shape
        for flag in (
            columns.shed, columns.failed, columns.escalated,
            columns.degraded, columns.retry_denied, columns.no_confidence,
        ):
            shape = 2 * shape + flag
        _, first, shape = np.unique(shape, return_index=True, return_inverse=True)
        return shape, first.tolist()

    def streams(self) -> Optional[Iterator[Dict[str, object]]]:
        """:func:`~repro.obs.trace.tree_streams` of every tree, gathered
        from the columns a chunk of requests at a time without the trees
        (a string stream as ``(lengths, joined)``) — or ``None`` when the
        segment must materialize."""
        if self.failover:
            return None
        shape, first = self._shapes()
        layouts = self._layouts(first)
        if None in layouts:
            return None
        return self._stream_chunks(shape, layouts)

    def _stream_chunks(self, shape, layouts) -> Iterator[Dict[str, object]]:
        sources = _digest_sources(self.columns)
        # One row per source: a float column's values, a text column's
        # lengths (what a string table hashes of it before its text).
        table = np.array(
            [
                source
                if source.dtype.kind == "f"
                else np.fromiter(map(len, source), float, len(source))
                for source in sources
            ]
        )
        # Streams of one level (per span, per attribute ...) put the same
        # number of items on each row of a shape: gathered together.
        levels: Dict[tuple, List[str]] = {}
        for name in TRACE_DIGEST_STREAMS:
            counts = tuple(len(layout[name]) for layout in layouts)
            levels.setdefault(counts, []).append(name)
        for start in range(0, len(self), _STREAM_CHUNK_ROWS):
            rows = slice(start, start + _STREAM_CHUNK_ROWS)
            codes = shape[rows]
            rows_of = [np.flatnonzero(codes == code) for code in range(len(layouts))]
            texts = [source[rows] for source in sources]
            streams = {}
            for counts, names in levels.items():
                items = [[layout[name] for layout in layouts] for name in names]
                gathered = _gathered(items, counts, codes, table[:, rows])
                for name, per_shape, values in zip(names, items, gathered):
                    if name in NUMERIC_STREAMS:
                        streams[name] = values
                    else:
                        streams[name] = values, _joined(per_shape, codes, rows_of, texts)
            yield streams

    def _layouts(self, first: List[int]) -> List[Optional[Dict[str, list]]]:
        """Per shape, per digest stream, each item of the shape's tree as
        the index of the source it is drawn from, or a literal
        ``(value,)`` — ``None`` for a shape whose two probes disagree."""
        probe, traces = self._probes(first)
        sources = _digest_sources(probe)
        learned = []
        for row, trace in enumerate(traces):
            index_of = {}
            for index, source in enumerate(sources):
                value = source.item(row)
                index_of.setdefault((type(value), value), index)
            learned.append(
                {
                    name: [index_of.get((type(item), item), (item,)) for item in items]
                    for name, items in tree_streams([trace]).items()
                }
            )
        return [a if a == b else None for a, b in zip(learned[::2], learned[1::2])]

    def render(self) -> Optional[Iterator[str]]:
        """:func:`~repro.obs.trace.trace_json` of every tree, in chunks,
        without the trees — or ``None`` when the columns cannot promise
        those bytes and the caller must materialize."""
        columns = self.columns
        numeric = _numeric_slots(columns)
        if self.failover or not all(np.isfinite(x).all() for x in numeric):
            return None
        shape, first = self._shapes()
        templates = self._templates(first)
        if None in templates:
            return None
        return self._chunks(shape, templates, numeric)

    def _chunks(self, shape, templates, numeric) -> Iterator[str]:
        for start in range(0, len(self), _RENDER_CHUNK_ROWS):
            codes = shape[start : start + _RENDER_CHUNK_ROWS]
            texts = [""] * len(codes)
            # The shapes present, ascending (``np.unique`` would load
            # ``numpy.ma``).
            for code in np.flatnonzero(np.bincount(codes)):
                rows = np.flatnonzero(codes == code)
                template, order, n_spans = templates[code]
                slots = _slots(
                    self.columns, numeric, rows + start, n_spans, set(order)
                )
                for at, args in zip(rows.tolist(), zip(*map(slots.__getitem__, order))):
                    texts[at] = template % args
            yield "".join(texts)

    def _templates(self, first: List[int]) -> list:
        """Per shape, ``(template, slot order, spans per tree)`` of its
        JSON line — ``None`` for a shape whose template fails its check
        on the second probe."""
        probe, traces = self._probes(first)
        n_spans = max((len(trace.spans) for trace in traces), default=0)
        slots = _slots(probe, _numeric_slots(probe), np.arange(len(traces)), n_spans)
        templates = []
        for row in range(0, len(traces), 2):
            values = [slot[row] for slot in slots]
            slot_of = {value: i for i, value in enumerate(values)}
            sentinel = re.compile("|".join(map(re.escape, slot_of)))
            text = trace_json(traces[row])
            order = [slot_of[hit] for hit in sentinel.findall(text)]
            template = sentinel.sub("%s", text.replace("%", "%%"))
            check = tuple(slot[row + 1] for slot in slots)
            templates.append(
                (template, order, len(traces[row].spans))
                if template % tuple(check[i] for i in order) == trace_json(traces[row + 1])
                else None
            )
        return templates

    def _probes(self, first: List[int]):
        """The first row of each shape (pair, flags, billed or not) on
        sentinel values, twice — scaled by 1, then by 3 — and their
        trees: ``(columns, traces)``, row ``2 * shape + k`` at scale
        ``(1, 3)[k]``."""
        rows = np.repeat(np.array(first, dtype=np.intp), 2)
        scale = np.tile([1, 3], len(first))
        columns = {name: getattr(self.columns, name) for name in self.columns.__slots__}
        # ``results`` is ``None`` on most runs; spans never read it.
        probe = type(self.columns)(
            **{
                name: column
                if name == "pairs" or column is None
                else column[rows]
                if isinstance(column, np.ndarray)
                else [column[i] for i in rows.tolist()]
                for name, column in columns.items()
            }
        )
        probe.request_ids = [f"\x00request{k}" for k in scale.tolist()]
        probe.payloads = [f"\x00payload{k}" for k in scale.tolist()]
        probe.retries = 7770001 * scale
        nothing_billed = probe.nothing_billed
        probe.node_seconds_accurate = np.where(
            probe.billed_accurate, 0.66796875 * scale, -1.0
        )
        for name, value in _PROBE_FLOATS.items():
            setattr(probe, name, value * scale)
        probe.node_seconds_fast[nothing_billed] = -1.0
        return probe, ColumnSegment(probe, {}).traces()


def _numeric_slots(columns) -> tuple:
    """The numeric columns a template can draw on: the report's own and
    the two derived stage ends."""
    return (
        columns.tier, columns.arrival_s, columns.finished_s,
        *_stage_ends(columns), columns.node_seconds_fast,
        columns.node_seconds_accurate, columns.confidence, columns.retries,
    )


def _digest_sources(columns) -> list:
    """What a digest stream item can be drawn from, row for row, each an
    array: the request ids and the payloads as text, each float column,
    and each integer column as text (the digest hashes an int
    attribute's text)."""
    sources = [
        np.array(columns.request_ids, dtype=object),
        np.array(list(map(str, columns.payloads)), dtype=object),
    ]
    for column in _numeric_slots(columns):
        if column.dtype.kind == "f":
            sources.append(column)
        else:  # one ``str`` per distinct value
            values, at = np.unique(column, return_inverse=True)
            sources.append(np.array(list(map(str, values.tolist())), dtype=object)[at])
    return sources


def _gathered(items, counts, shape, table) -> np.ndarray:
    """Per stream of one level, one value per item of every row, in
    completion order: item ``j`` of stream ``k`` on a row of shape ``s``
    is ``items[k][s][j]``, the index of the ``table`` row it is read from
    or a literal ``(value,)`` (a string as its length).  A row of shape
    ``s`` has ``counts[s]`` items in each stream."""
    width = max(counts, default=0)
    drawn = np.full((len(items), len(counts), width), -1)
    literal = np.zeros((len(items), len(counts), width))
    for k, per_shape in enumerate(items):
        for code, row_items in enumerate(per_shape):
            for j, item in enumerate(row_items):
                if isinstance(item, int):
                    drawn[k, code, j] = item
                else:
                    value = item[0]
                    literal[k, code, j] = len(value) if isinstance(value, str) else value
    # Item ``j`` of row ``r`` reads cell ``shape[r] * width + j`` of a
    # stream's (shapes, width) item table.
    per_row = np.array(counts, dtype=np.intp)[shape]
    first_item = np.cumsum(per_row) - per_row
    at = np.repeat(shape * width - first_item, per_row) + np.arange(per_row.sum())
    out = literal.reshape(len(items), -1).take(at, axis=1)
    drawing = np.flatnonzero((drawn >= 0).any(axis=(1, 2))).tolist()
    if drawing:
        rows = np.repeat(np.arange(len(shape)), per_row)
    for k in drawing:
        source = drawn[k].take(at)
        hit = np.flatnonzero(source >= 0)
        out[k, hit] = table.take(source[hit] * table.shape[1] + rows[hit])
    return out


def _joined(items, codes, rows_of, texts) -> str:
    """The text items of every row (as :func:`_gathered` reads them,
    from ``texts``), joined in completion order (``codes``: each row's
    shape, ``rows_of[s]``: the rows of shape ``s``).  A shape's items
    become pieces — a run of literals one string, a drawn item its
    column — laid out as a rows × pieces matrix and joined row by row."""
    pieces = []
    for row_items in items:
        joined: list = []
        for item in row_items:
            if isinstance(item, int):
                joined.append(item)
            elif joined and isinstance(joined[-1], str):
                joined[-1] += item[0]
            else:
                joined.append(item[0])
        pieces.append(joined)
    width = max(map(len, pieces), default=0)
    matrix = np.empty((len(codes), width), dtype=object)
    for j in range(width):
        at = [shape_pieces[j] if j < len(shape_pieces) else "" for shape_pieces in pieces]
        literal = np.array([piece if isinstance(piece, str) else "" for piece in at], dtype=object)
        column = literal.take(codes)
        for piece, rows in zip(at, rows_of):
            if isinstance(piece, int):
                column[rows] = texts[piece][rows]
        matrix[:, j] = column
    return "".join(matrix.ravel().tolist())


def _slots(columns, numeric, rows, n_spans: int, read=None) -> List[list]:
    """Every value a JSON template can ask for, one list per slot, each
    column through a single ``.tolist()`` and as ``json.dumps`` would
    write it (``repr`` of a finite number, an escaped string), with the
    ``sha256``-derived ids alongside.  Given ``read`` (the slots a
    template reads), a numeric slot it does not read is ``None``."""
    ids = [columns.request_ids[i] for i in rows.tolist()]
    payloads = [str(columns.payloads[i]) for i in rows.tolist()]
    values = [
        list(map(repr, column[rows].tolist()))
        if read is None or slot in read
        else None
        for slot, column in enumerate(numeric, start=2)
    ]
    values.append([trace_id_for(rid) for rid in ids])
    for index in range(n_spans):
        values.append([span_id_for(rid, index) for rid in ids])
    return [json_escaped(ids), json_escaped(payloads), *values]


#: What ``json.dumps`` escapes in a string (its own ``ESCAPE_ASCII``).
_NEEDS_ESCAPE = re.compile(r'[\\"]|[^\ -~]').search


def json_escaped(strings: List[str]) -> List[str]:
    """Each string as ``json.dumps`` writes it between its quotes; only
    one holding a quote, a backslash, a control or a non-ASCII
    character pays for the call."""
    return [json.dumps(s)[1:-1] if _NEEDS_ESCAPE(s) else s for s in strings]


def trace_from_record(record) -> Trace:
    """Coarse span tree for one finished :class:`RequestRecord` (the
    synchronous gateway's sessions have no report to rebuild from)."""
    return _from_columns(RecordColumns.from_records([record]))[0]


def traces_from_report(report) -> List[Trace]:
    """Rebuild coarse span trees for every request in a report, from
    its ``RecordColumns``: the trees :func:`trace_from_record` builds
    for ``report.records``, whichever engine ran."""
    return _from_columns(report.columns)
