"""The span model: deterministic per-request trace trees.

A :class:`Trace` is one request's story — a root ``request`` span plus
child spans for every stage the request passed through (queue wait,
execution legs, escalation wait, retry backoff, failover hops), each
with virtual-clock timestamps and optional :class:`SpanEvent` markers
for faults and control actions.

Determinism contract
--------------------
Recording draws **nothing** from any RNG: trace ids are derived from
request ids by SHA-256, span ids from ``(request id, span index)``, and
every timestamp comes off the simulator's virtual clock.  Two runs of
the same seeded scenario therefore produce byte-identical JSONL exports
and the same :meth:`TraceCollector.digest`.

The one piece of state that is *not* digest-stable across processes is
node identity (``ServiceNode`` ids come from a process-global counter),
so span attributes named ``node`` are excluded from the digest — the
same exclusion the report digest applies to the fault log.

Digest layout (contract version 3, :mod:`repro.contract`): no span is
formatted as text.  The digest hashes a ``trace-digest:v3`` line, then
one typed stream per span field in ``TRACE_DIGEST_STREAMS`` order, each
in completion order — per trace its request id and span count; per span
its name, status, ``start_s`` / ``end_s`` and its attribute and event
counts; per attribute, in sorted key order without ``node``, its key,
its kind (the ASCII code of ``b`` bool, ``i`` int, ``f`` float, ``s``
str, ``o`` anything else) and its value — a float in ``attr_float``,
anything else as ``str(value)`` in ``attr_text``; per event its time,
name and detail.  A stream enters as a ``{name}:{items}`` line and the
SHA-256 of its bytes: every float (a time given as an int included) its
``<u8`` bits rounded to ``DIGEST_MANTISSA_BITS`` (every NaN one pattern),
counts ``<u4``, kinds one byte each; a string stream two SHA-256s, of its
``<u4`` lengths and of its joined UTF-8 (:data:`NUMERIC_STREAMS`).  Each
stream hashes by itself, so trees and segments feed it a chunk at a
time.  Then one ``event:`` text line per run event.

Storage
-------
A collector holds trees, then — behind them — the columnar runs nobody
has asked a tree of yet (:class:`~repro.obs.reconstruct.ColumnSegment`;
its docstring has the life-cycle).  Never both for one run, and no
cache: every ``digest()`` re-reads the spans, so editing one changes it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.contract import CONTRACT_VERSION, TRACE_DIGEST_STREAMS
from repro.core.errors import TraceFileError
from repro.service.simulation.report import rounded_bits

__all__ = [
    "Span",
    "SpanEvent",
    "Trace",
    "TraceCollector",
    "span_id_for",
    "trace_id_for",
]

#: Span attributes carrying process-local identity, excluded from the
#: trace digest (mirrors the fault-log ``node_id`` exclusion in
#: ``LoadTestReport.digest``).
_DIGEST_EXCLUDED_ATTRS = frozenset({"node"})

#: How each numeric digest stream hashes an item: ``f8`` as its bits
#: rounded to ``DIGEST_MANTISSA_BITS``, else as this dtype.  Every other
#: stream is a string table: its ``<u4`` lengths, and its joined UTF-8.
NUMERIC_STREAMS = {
    "n_spans": "<u4", "start_s": "f8", "end_s": "f8", "n_attrs": "<u4",
    "n_events": "<u4", "attr_kind": "u1", "attr_float": "f8", "event_time_s": "f8",
}

#: An attribute value's digest kind by type, as an ASCII code (``bool``
#: before ``int``: subclasses, a NumPy float say, resolve in this order;
#: anything else is ``o``).
_KINDS = {bool: ord("b"), int: ord("i"), float: ord("f"), str: ord("s")}


def trace_id_for(request_id: str) -> str:
    """Deterministic 16-hex trace id for a request id (no RNG)."""
    return hashlib.sha256(f"trace:{request_id}".encode()).hexdigest()[:16]


def span_id_for(request_id: str, index: int) -> str:
    """Deterministic 16-hex span id for span ``index`` of a request."""
    return hashlib.sha256(f"span:{request_id}:{index}".encode()).hexdigest()[
        :16
    ]


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """A point-in-time marker on a span (fault hit, control action)."""

    time_s: float
    name: str
    detail: str = ""


@dataclass(slots=True)
class Span:
    """One stage of a request's lifecycle on the virtual clock.

    Args:
        name: Stage name (``request``, ``queue-wait``, ``leg``,
            ``escalate-wait``, ``escalate``, ``retry-backoff``,
            ``failover-hop``).
        start_s: Stage start on the virtual clock.
        end_s: Stage end; equals ``start_s`` for instantaneous spans.
        status: ``ok``, ``failed``, ``shed``, ``cancelled`` or
            ``unserved``.
        attrs: Flat string/number attributes (``version``, ``leg``,
            ``attempt`` ...).  ``node`` is digest-excluded.
        events: Point markers attached to this stage.
    """

    name: str
    start_s: float
    end_s: float
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    span_id: str = ""
    parent_id: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if self.events:
            payload["events"] = [
                {"time_s": e.time_s, "name": e.name, "detail": e.detail}
                for e in self.events
            ]
        return payload


@dataclass(slots=True)
class Trace:
    """One request's span tree: the root ``request`` span plus children.

    Spans are stored in creation order with the root first; children
    link to the root (or another span) through ``parent_id``.  Ids are
    assigned by :meth:`seal`, derived purely from the request id and
    the span's position — never from an RNG.
    """

    request_id: str
    spans: List[Span]
    trace_id: str = ""

    def __post_init__(self) -> None:
        if not self.trace_id:
            self.trace_id = trace_id_for(self.request_id)

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def outcome(self) -> str:
        return self.root.status

    @property
    def arrival_s(self) -> float:
        return self.root.start_s

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def seal(self) -> "Trace":
        """Assign deterministic span ids and root parent links."""
        for index, span in enumerate(self.spans):
            span.span_id = span_id_for(self.request_id, index)
        root_id = self.spans[0].span_id
        for span in self.spans[1:]:
            if span.parent_id is None:
                span.parent_id = root_id
        self.spans[0].parent_id = None
        return self

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        """The sealed trace :meth:`to_dict` wrote, every span built once.

        Ids are derived, not trusted, in the same pass: ``ValueError`` if
        a non-empty ``trace_id`` / ``span_id`` is not the derived one or
        a non-root ``parent_id`` names no earlier span (missing or empty
        ids are derived, as :meth:`seal` would)."""
        request_id = payload["request_id"]
        trace_id = trace_id_for(request_id)
        given = payload.get("trace_id")
        if given and given != trace_id:
            raise ValueError(f"trace_id {given!r} != {trace_id!r}")
        spans: List[Span] = []
        ids: List[str] = []
        for index, span in enumerate(payload["spans"]):
            span_id = span_id_for(request_id, index)
            given = span.get("span_id")
            if given and given != span_id:
                raise ValueError(f"span {index}: span_id {given!r} != {span_id!r}")
            parent = span.get("parent_id") or None
            if not index:
                parent = None
            elif parent is None:
                parent = ids[0]
            elif parent not in ids:
                raise ValueError(f"span {index}: parent_id {parent!r} is not earlier")
            ids.append(span_id)
            events = [
                SpanEvent(float(e["time_s"]), e["name"], e.get("detail", ""))
                for e in span.get("events", ())
            ]
            attrs = span.get("attrs", {})
            spans.append(
                Span(
                    span["name"],
                    float(span["start_s"]),
                    float(span["end_s"]),
                    span.get("status", "ok"),
                    attrs if type(attrs) is dict else dict(attrs),
                    events,
                    span_id,
                    parent,
                )
            )
        if not spans:
            raise ValueError("a trace needs its root span")
        return cls(request_id, spans, trace_id)


def trace_json(trace: Trace) -> str:
    """One trace as the collector writes it: its JSONL line."""
    return json.dumps(trace.to_dict(), sort_keys=True) + "\n"


def tree_streams(traces: Sequence[Trace]) -> Dict[str, list]:
    """The digest streams of span trees, as Python values per stream name
    of ``TRACE_DIGEST_STREAMS``: each a field read off every trace, span,
    attribute or event in turn."""
    spans = [span for trace in traces for span in trace.spans]
    events = [event for span in spans for event in span.events]
    attrs = list(map(attrgetter("attrs"), spans))
    # Sorted digested keys, once per key order (a span's kind, mostly).
    orders = list(map(tuple, attrs))
    digested = {
        order: sorted(set(order) - _DIGEST_EXCLUDED_ATTRS) for order in set(orders)
    }
    keyed = [(span_attrs, digested[order]) for span_attrs, order in zip(attrs, orders)]
    values = [span_attrs[key] for span_attrs, keys in keyed for key in keys]
    kinds = list(map(_KINDS.get, map(type, values)))
    if None in kinds:  # a subclass (a NumPy float, say) or another type
        kinds = [
            kind or next((k for t, k in _KINDS.items() if isinstance(v, t)), ord("o"))
            for kind, v in zip(kinds, values)
        ]
    floats = _KINDS[float]
    return {
        "request_id": list(map(attrgetter("request_id"), traces)),
        "n_spans": [len(trace.spans) for trace in traces],
        "name": list(map(attrgetter("name"), spans)),
        "status": list(map(attrgetter("status"), spans)),
        "start_s": list(map(attrgetter("start_s"), spans)),
        "end_s": list(map(attrgetter("end_s"), spans)),
        "n_attrs": [len(keys) for _, keys in keyed],
        "n_events": [len(span.events) for span in spans],
        "attr_key": [key for _, keys in keyed for key in keys],
        "attr_kind": kinds,
        "attr_float": [v for v, kind in zip(values, kinds) if kind == floats],
        "attr_text": [str(v) for v, kind in zip(values, kinds) if kind != floats],
        "event_time_s": list(map(attrgetter("time_s"), events)),
        "event_name": list(map(attrgetter("name"), events)),
        "event_detail": list(map(attrgetter("detail"), events)),
    }


#: Trees per step of :meth:`TraceCollector.digest`: bounds the transient
#: stream values however many traces the collector holds.
_DIGEST_CHUNK_TRACES = 256


class _StreamHashes:
    """The digest streams' running hashes, fed a chunk at a time: per
    stream its item count and the SHA-256 of its bytes — for a string
    stream, of its lengths, then another of its joined UTF-8."""

    def __init__(self) -> None:
        self.items = dict.fromkeys(TRACE_DIGEST_STREAMS, 0)
        self.hashes = {
            name: [hashlib.sha256() for _ in range(1 if name in NUMERIC_STREAMS else 2)]
            for name in TRACE_DIGEST_STREAMS
        }

    def add(self, streams: Dict[str, object]) -> None:
        """One chunk: per stream name its items as Python values (see
        :func:`tree_streams`), a numeric stream as an array and a string
        stream as ``(lengths, joined)`` too."""
        for name in TRACE_DIGEST_STREAMS:
            items = streams[name]
            dtype = NUMERIC_STREAMS.get(name)
            if dtype == "f8":
                blocks = (rounded_bits(np.asarray(items, dtype=float)),)
            elif dtype:
                blocks = (np.asarray(items, dtype=dtype),)
            else:
                lengths, joined = (
                    items
                    if isinstance(items, tuple)
                    else (np.fromiter(map(len, items), "<u4", len(items)), "".join(items))
                )
                blocks = (np.asarray(lengths, dtype="<u4"), joined.encode())
            self.items[name] += len(blocks[0])
            for h, block in zip(self.hashes[name], blocks):
                h.update(block)

    def finish(self, h) -> None:
        """Feed ``h`` every stream: a ``{name}:{items}`` line, then its
        hashes, in ``TRACE_DIGEST_STREAMS`` order."""
        for name in TRACE_DIGEST_STREAMS:
            h.update(f"{name}:{self.items[name]}\n".encode())
            for stream_hash in self.hashes[name]:
                h.update(stream_hash.digest())


class TraceCollector:
    """Accumulates traces and run-level events; the ``TraceSink``.

    Attach one to :func:`~repro.service.simulation.scenarios.run_scenario`
    (``trace=collector``), a
    :class:`~repro.service.gateway.simulated.SimulatedBackend`, or
    :func:`~repro.service.regions.runner.run_multi_region` and it fills
    with one :class:`Trace` per request, in completion order, plus the
    run's fault and control events as run-level markers.

    The collector is deliberately dumb — ordered storage, a stable
    digest, JSONL round-trip, and the trace→:class:`~repro.service.simulation.arrivals.TraceArrivals`
    replay bridge.
    """

    def __init__(self) -> None:
        self._traces: List[Trace] = []
        #: Columnar runs not yet asked for a tree, in arrival order; they
        #: always follow ``_traces`` (see :attr:`traces`).
        self._pending: list = []
        #: Run-level markers: ``(time_s, kind, detail, region)`` tuples
        #: covering the fault log and control log of the recorded run.
        self.run_events: List[Tuple[float, str, str, Optional[str]]] = []
        self._by_id: Dict[str, Trace] = {}

    # ------------------------------------------------------------------
    # sink protocol
    # ------------------------------------------------------------------
    def _materialise(self) -> List[Trace]:
        """Every trace, in completion order, as objects: each pending
        segment becomes its trees and is dropped."""
        while self._pending:
            for trace in self._pending.pop(0).traces():
                self._traces.append(trace)
                self._by_id[trace.request_id] = trace
        return self._traces

    traces = property(_materialise)

    def add_trace(self, trace: Trace) -> None:
        self.add_sealed(trace.seal())

    def add_sealed(self, trace: Trace) -> None:
        """Append a trace whose ids are already derived (a sealed tree,
        or :meth:`Trace.from_dict`'s), without deriving them again."""
        self._materialise().append(trace)
        self._by_id[trace.request_id] = trace

    def add_segment(self, segment) -> None:
        """Append a columnar run's traces as columns (a
        :class:`~repro.obs.reconstruct.ColumnSegment`)."""
        self._pending.append(segment)

    def add_run_event(
        self,
        time_s: float,
        kind: str,
        detail: str = "",
        region: Optional[str] = None,
    ) -> None:
        self.run_events.append((float(time_s), kind, detail, region))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces) + sum(map(len, self._pending))

    def trace_for(self, request_id: str) -> Optional[Trace]:
        """The trace recorded for ``request_id``, or ``None``."""
        self._materialise()
        return self._by_id.get(request_id)

    # ------------------------------------------------------------------
    # digest
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable SHA-256 over every span and run-level event.

        Covers span names, timestamps (rounded to
        ``DIGEST_MANTISSA_BITS``), statuses, attributes (minus the
        process-local ``node``) and events, in completion order, as
        typed streams (layout in the module docstring) — the trace-layer
        analogue of ``LoadTestReport.digest``.  Trees fill the streams
        field by field, pending segments by array operations — unless
        one declines, and all become trees first — a chunk at a time.
        """
        chunks = [segment.streams() for segment in self._pending]
        if None in chunks:
            chunks = []
            self._materialise()
        traces = self._traces
        trees = (
            tree_streams(traces[start : start + _DIGEST_CHUNK_TRACES])
            for start in range(0, len(traces), _DIGEST_CHUNK_TRACES)
        )
        streams = _StreamHashes()
        for chunk in chain(trees, *chunks):
            streams.add(chunk)
        h = hashlib.sha256(f"trace-digest:v{CONTRACT_VERSION}\n".encode())
        streams.finish(h)
        for time_s, kind, detail, region in self.run_events:
            h.update(f"event:{time_s:.12e}|{kind}|{detail}|{region or ''}\n".encode())
        return h.hexdigest()

    def _json_lines(self) -> Iterable[str]:
        """:func:`trace_json` of every trace, in completion order: trees
        one at a time, pending segments a chunk of requests at a time —
        unless one declines to render, and all become trees first."""
        rendered = [segment.render() for segment in self._pending]
        if None in rendered:
            rendered = []
            self._materialise()
        for trace in self._traces:
            yield trace_json(trace)
        for chunks in rendered:
            yield from chunks

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------
    def export_jsonl(self, path) -> None:
        """Write the run: one meta line, then one JSON line per trace."""
        with open(path, "w", encoding="utf-8") as handle:
            meta = {
                "kind": "trace-run",
                "contract_version": CONTRACT_VERSION,
                "n_traces": len(self),
                "digest": self.digest(),
                "run_events": [
                    {
                        "time_s": t,
                        "kind": kind,
                        "detail": detail,
                        "region": region,
                    }
                    for t, kind, detail, region in self.run_events
                ],
            }
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            handle.writelines(self._json_lines())

    @classmethod
    def load_jsonl(cls, path) -> "TraceCollector":
        """Load a collector back from :meth:`export_jsonl` output.

        The header must carry this tree's ``contract_version`` (a file
        digested under another contract is refused on line 1, naming
        both) and the digest; the digest and the trace count are both
        re-verified, so a truncated or edited file cannot masquerade as
        the recorded run; whatever is wrong raises one
        :class:`~repro.core.errors.TraceFileError` naming the file and
        the 1-based line.  No line is skipped.

        Each tree is built once, by :meth:`Trace.from_dict`, which derives
        and checks its ids in the same pass: a non-empty ``trace_id`` /
        ``span_id`` must be :func:`trace_id_for` / :func:`span_id_for`'s
        (missing or empty ones are derived), and a non-root parent an
        earlier span of the trace.  The digest covers no parent link,
        so a span moved under another earlier span still loads until
        the trace digest covers parent links.
        """
        collector = cls()
        traces, by_id = collector._traces, collector._by_id
        header = None
        number = 0
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    payload = json.loads(line.rstrip("\n"))
                    if header is not None:
                        trace = Trace.from_dict(payload)
                        traces.append(trace)
                        by_id[trace.request_id] = trace
                    elif payload.get("kind") == "trace-run":
                        header = payload
                        written = header.get("contract_version", "none")
                        if written != CONTRACT_VERSION:
                            raise TraceFileError(
                                path,
                                number,
                                f"written under trace contract version {written}, "
                                f"this reader digests under version "
                                f"{CONTRACT_VERSION}: export the run again",
                            )
                        if not isinstance(header["digest"], str):
                            raise TypeError("the header's digest is not a string")
                        for event in header.get("run_events", ()):
                            collector.add_run_event(
                                event["time_s"],
                                event["kind"],
                                event.get("detail", ""),
                                event.get("region"),
                            )
                    else:
                        break
                except TraceFileError:
                    raise
                except json.JSONDecodeError as exc:  # its text says "line 1"
                    reason = f"invalid JSON at column {exc.colno}: {exc.msg}"
                    raise TraceFileError(path, number, reason) from exc
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                    raise TraceFileError(path, number, reason) from exc
        if header is None:
            raise TraceFileError(
                path, 1, "not a trace-run JSONL file (bad header)"
            )
        if collector.digest() != header["digest"]:
            raise TraceFileError(
                path,
                1,
                "trace file digest mismatch: the file was truncated or "
                "edited after export",
            )
        if header.get("n_traces") != len(collector):
            raise TraceFileError(
                path,
                number,
                f"file ends after {len(collector)} traces, the header "
                f"promises {header.get('n_traces')}: truncated or edited",
            )
        return collector

    # ------------------------------------------------------------------
    # replay bridge
    # ------------------------------------------------------------------
    def arrival_times(self) -> List[float]:
        """Recorded arrival timestamps, ascending."""
        return sorted(trace.arrival_s for trace in self.traces)

    def to_arrivals(self):
        """The recorded arrival stream as a replayable ``TraceArrivals``.

        Any recorded run — including one captured under chaos faults —
        becomes a workload: feed the result to ``ServingSimulator.run``
        or a scenario spec and the original arrival stream is
        reproduced exactly.
        """
        from repro.service.simulation.arrivals import TraceArrivals

        return TraceArrivals(self.arrival_times())
