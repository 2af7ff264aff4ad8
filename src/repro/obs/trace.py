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

Storage
-------
A collector holds trees, then — behind them — the columnar runs nobody
has asked a tree of yet (:class:`~repro.obs.reconstruct.ColumnSegment`;
its docstring has the life-cycle).  Never both for one run, and no
cache: every ``digest()`` re-renders, so editing a span changes it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import TraceFileError

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


def trace_id_for(request_id: str) -> str:
    """Deterministic 16-hex trace id for a request id (no RNG)."""
    return hashlib.sha256(f"trace:{request_id}".encode()).hexdigest()[:16]


def span_id_for(request_id: str, index: int) -> str:
    """Deterministic 16-hex span id for span ``index`` of a request."""
    return hashlib.sha256(f"span:{request_id}:{index}".encode()).hexdigest()[
        :16
    ]


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time marker on a span (fault hit, control action)."""

    time_s: float
    name: str
    detail: str = ""


@dataclass
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

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            status=payload.get("status", "ok"),
            attrs=dict(payload.get("attrs", {})),
            events=[
                SpanEvent(
                    time_s=float(e["time_s"]),
                    name=e["name"],
                    detail=e.get("detail", ""),
                )
                for e in payload.get("events", ())
            ],
            span_id=payload.get("span_id", ""),
            parent_id=payload.get("parent_id") or None,  # empty: derived at seal
        )


def _spec(value: object) -> str:
    """The ``%`` spec of a value's digest-stable rendering: floats at 12
    significant digits, booleans as ``0`` / ``1``, anything else ``str``."""
    if isinstance(value, bool):
        return "%d"
    if isinstance(value, float):
        return "%.12e"
    return "%s"


def _fmt(value: object) -> str:
    return _spec(value) % (value,)


@dataclass
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

    def digest_lines(
        self, templates: Optional[Dict[tuple, tuple]] = None
    ) -> Iterable[str]:
        """The digest-participating rendering of this trace: a line is
        one ``%`` application of a template laid out once per span
        *shape* (attribute keys, value and timestamp types) — per
        ``templates`` dict, which a caller rendering many traces shares."""
        if templates is None:
            templates = {}
        for span in self.spans:
            attrs = span.attrs
            events = span.events and ";".join(
                f"{_fmt(e.time_s)}:{e.name}:{e.detail}" for e in span.events
            )
            values = (
                self.request_id, span.name, span.start_s, span.end_s,
                span.status, events or "", *attrs.values(),
            )
            shape = (*attrs, *map(type, values))
            if shape not in templates:
                # Laid out in sorted key order, fed in insertion order.
                keys = sorted(attrs.keys() - _DIGEST_EXCLUDED_ATTRS)
                layout = ";".join(
                    key.replace("%", "%%") + "=" + _spec(attrs[key])
                    for key in keys
                )
                at = list(attrs).index
                templates[shape] = (
                    f"%s|%s|{_spec(span.start_s)}|{_spec(span.end_s)}|%s|"
                    f"{layout}|%s\n",
                    itemgetter(0, 1, 2, 3, 4, *(6 + at(key) for key in keys), 5),
                )
            template, pick = templates[shape]
            yield template % pick(values)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        return cls(
            request_id=payload["request_id"],
            trace_id=payload.get("trace_id", ""),
            spans=[Span.from_dict(s) for s in payload["spans"]],
        )


def _add_checked(collector: "TraceCollector", payload: dict) -> None:
    """Add a loaded trace, sealed; ``ValueError`` if an id it carries is
    not the one sealing derives or a non-root parent no earlier span."""
    trace = Trace.from_dict(payload)
    given = [span.span_id for span in trace.spans]
    collector.add_trace(trace)  # seals: derives every span id
    derived = trace_id_for(trace.request_id)
    if trace.trace_id != derived:
        raise ValueError(f"trace_id {trace.trace_id!r} != {derived!r}")
    ids = [span.span_id for span in trace.spans]
    for index, span in enumerate(trace.spans):
        if given[index] not in ("", ids[index]):
            raise ValueError(f"span {index}: span_id {given[index]!r} != {ids[index]!r}")
        if index and span.parent_id not in ids[:index]:
            raise ValueError(f"span {index}: parent_id {span.parent_id!r} is not earlier")


def trace_text(trace: Trace, as_json: bool, templates=None) -> str:
    """One trace as the collector hashes it (its digest lines) or writes
    it (its JSONL line)."""
    if as_json:
        return json.dumps(trace.to_dict(), sort_keys=True) + "\n"
    return "".join(trace.digest_lines(templates))


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
        trace.seal()
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

        Covers span names, timestamps (12 significant digits), statuses,
        attributes (minus the process-local ``node``) and events, in
        completion order — the trace-layer analogue of
        ``LoadTestReport.digest``.
        """
        h = hashlib.sha256()
        for text in self._texts(as_json=False):
            h.update(text.encode())
        for time_s, kind, detail, region in self.run_events:
            region_part = region or ""
            h.update(
                f"event:{_fmt(time_s)}|{kind}|{detail}|{region_part}\n".encode()
            )
        return h.hexdigest()

    def _texts(self, as_json: bool) -> Iterable[str]:
        """:func:`trace_text` of every trace, in completion order: trees
        one at a time, pending segments a chunk of requests at a time —
        unless one declines to render, and all become trees first."""
        rendered = [segment.render(as_json) for segment in self._pending]
        if None in rendered:
            rendered = []
            self._materialise()
        templates: Dict[tuple, tuple] = {}
        for trace in self._traces:
            yield trace_text(trace, as_json, templates)
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
            handle.writelines(self._texts(as_json=True))

    @classmethod
    def load_jsonl(cls, path) -> "TraceCollector":
        """Load a collector back from :meth:`export_jsonl` output.

        The header must carry the digest, and it and the trace count are
        both re-verified, so a truncated or edited file cannot masquerade
        as the recorded run; whatever is wrong raises one
        :class:`~repro.core.errors.TraceFileError` naming the file and
        the 1-based line.  No line is skipped.

        Ids are derived, not trusted: a non-empty ``trace_id`` /
        ``span_id`` must be :func:`trace_id_for` / :func:`span_id_for`'s
        (missing or empty ones are derived), and a non-root parent an
        earlier span of the trace.  The digest covers no parent link,
        so a span moved under another earlier span still loads until
        the trace digest covers parent links.
        """
        collector = cls()
        header = None
        number = 0
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    payload = json.loads(line.rstrip("\n"))
                    if header is not None:
                        _add_checked(collector, payload)
                    elif payload.get("kind") == "trace-run":
                        header = payload
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
