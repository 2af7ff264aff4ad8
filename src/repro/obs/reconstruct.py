"""Post-hoc span reconstruction from finished reports.

The columnar engine never pays per-event hooks — that is what keeps its
hot path >10x over the legacy loop.  A traced columnar run reaches the
collector as one :class:`ColumnSegment` — the report's ``RecordColumns``
(every report has them, whichever engine ran) — and stays columns until
someone asks for a tree:

- ``digest()`` / ``export_jsonl()`` render a segment at column rate, one
  ``%`` application per request (:meth:`ColumnSegment.render`);
- ``.traces`` / ``trace_for`` / ``add_trace`` materialize
  it through :func:`_from_columns` + ``seal``, after which the trees are
  the only storage (the segment is dropped, nothing is memoized);
- so does rendering what columns cannot promise byte for byte: failover
  annotations (per-request strings; shards read ``.traces`` anyway) and
  non-finite floats (``json`` writes ``NaN`` where ``repr`` writes
  ``nan``).

The templates are *learned*, not written: a one-row probe of each tree
shape present, on sentinel values, goes through the object renderers and
every sentinel found in the text becomes a slot.  The digest-line and
JSON layouts therefore keep their single definition in
:mod:`repro.obs.trace`; a second probe checks each template and a
mismatch (a sentinel inside a version name, say) falls back to trees.

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
from typing import Iterator, List, Optional

import numpy as np

from repro.obs.trace import (
    Span,
    Trace,
    _fmt,
    _spec,
    span_id_for,
    trace_id_for,
    trace_text,
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


#: Requests rendered per step of :meth:`ColumnSegment.render`: bounds the
#: transient text and Python scalars however long the run was.
_RENDER_CHUNK_ROWS = 1024

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

    def render(self, as_json: bool) -> Optional[Iterator[str]]:
        """:func:`~repro.obs.trace.trace_text` of every tree, in chunks,
        without the trees — or ``None`` when the columns cannot promise
        those bytes and the caller must materialize."""
        columns = self.columns
        numeric = _numeric_slots(columns)
        if self.failover or not all(np.isfinite(x).all() for x in numeric):
            return None
        # A tree's layout depends on nothing but what it billed (its
        # pair's legs, or nothing) and these flags.
        shape = columns.billed_shape
        for flag in (
            columns.shed, columns.failed, columns.escalated,
            columns.degraded, columns.retry_denied, columns.no_confidence,
        ):
            shape = 2 * shape + flag
        _, first, shape = np.unique(shape, return_index=True, return_inverse=True)
        templates = [self._learn(row, as_json) for row in first.tolist()]
        if None in templates:
            return None
        return self._chunks(shape, templates, numeric, as_json)

    def _chunks(self, shape, templates, numeric, as_json) -> Iterator[str]:
        for start in range(0, len(self), _RENDER_CHUNK_ROWS):
            codes = shape[start : start + _RENDER_CHUNK_ROWS]
            texts = [""] * len(codes)
            for code in np.unique(codes):
                rows = np.flatnonzero(codes == code)
                template, order, n_spans = templates[code]
                slots = _slots(self.columns, numeric, rows + start, n_spans, as_json)
                for at, args in zip(rows.tolist(), zip(*map(slots.__getitem__, order))):
                    texts[at] = template % args
            yield "".join(texts)

    def _learn(self, row: int, as_json: bool):
        """``(template, slot order, spans per tree)`` for the shape of
        row ``row``, or ``None`` if the template fails its self-check."""
        columns = self.columns
        slots = {name: getattr(columns, name) for name in columns.__slots__}
        learned = None
        for scale in (1, 3):
            # The row itself (pair, flags, billed or not) on sentinels.
            # (``results`` is ``None`` on most runs; spans never read it.)
            probe = type(columns)(
                **{
                    name: column
                    if name == "pairs" or column is None
                    else column[row : row + 1]
                    for name, column in slots.items()
                }
            )
            probe.request_ids = [f"\x00request{scale}"]
            probe.payloads = [f"\x00payload{scale}"]
            probe.retries = np.array([7770001 * scale])
            nothing_billed = probe.nothing_billed
            probe.node_seconds_accurate = np.where(
                probe.billed_accurate, 0.66796875 * scale, -1.0
            )
            for name, value in _PROBE_FLOATS.items():
                setattr(probe, name, np.array([value * scale]))
            probe.node_seconds_fast[nothing_billed] = -1.0
            (trace,) = ColumnSegment(probe, {}).traces()
            text = trace_text(trace, as_json)
            values = [
                slot[0]
                for slot in _slots(
                    probe, _numeric_slots(probe), np.arange(1), len(trace.spans), as_json
                )
            ]
            if learned is None:
                slot_of = {_fmt(v): i for i, v in enumerate(values)}
                sentinel = re.compile("|".join(map(re.escape, slot_of)))
                order = [slot_of[hit] for hit in sentinel.findall(text)]
                template = sentinel.sub(
                    lambda hit: _spec(values[slot_of[hit[0]]]),
                    text.replace("%", "%%"),
                )
                learned = template, order, len(trace.spans)
            elif template % tuple(values[i] for i in order) != text:
                return None
        return learned


def _numeric_slots(columns) -> tuple:
    """The numeric columns a template can draw on: the report's own and
    the two derived stage ends."""
    return (
        columns.tier, columns.arrival_s, columns.finished_s,
        *_stage_ends(columns), columns.node_seconds_fast,
        columns.node_seconds_accurate, columns.confidence, columns.retries,
    )


def _slots(columns, numeric, rows, n_spans: int, as_json: bool) -> List[list]:
    """Every value a template can ask for, one list per slot, each
    column through a single ``.tolist()``.  For JSON everything arrives
    as ``json.dumps`` would write it (``repr`` of a finite number, an
    escaped string) and the ``sha256``-derived ids ride along."""
    ids = [columns.request_ids[i] for i in rows.tolist()]
    payloads = [str(columns.payloads[i]) for i in rows.tolist()]
    values = [column[rows].tolist() for column in numeric]
    if as_json:
        values = [list(map(repr, column)) for column in values]
        values.append([trace_id_for(rid) for rid in ids])
        for index in range(n_spans):
            values.append([span_id_for(rid, index) for rid in ids])
        ids = [json.dumps(rid)[1:-1] for rid in ids]
        payloads = [json.dumps(payload)[1:-1] for payload in payloads]
    return [ids, payloads, *values]


def trace_from_record(record) -> Trace:
    """Coarse span tree for one finished :class:`RequestRecord` (the
    synchronous gateway's sessions have no report to rebuild from)."""
    return _from_columns(RecordColumns.from_records([record]))[0]


def traces_from_report(report) -> List[Trace]:
    """Rebuild coarse span trees for every request in a report, from
    its ``RecordColumns``: the trees :func:`trace_from_record` builds
    for ``report.records``, whichever engine ran."""
    return _from_columns(report.columns)
