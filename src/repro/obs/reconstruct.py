"""Post-hoc span reconstruction from finished reports.

The columnar engine never pays per-event hooks — that is what keeps its
hot path >10x over the legacy loop.  Instead, when a collector is
attached and the run drained columnar, the engine hands the finished
:class:`~repro.service.simulation.report.LoadTestReport` here and the
span trees are rebuilt *after the fact* from ``RecordColumns``: the
derived stage boundaries (queue-wait end, fast-leg end) are computed
vectorized over the whole run, then one coarse trace per request is
materialized.

Reconstruction is **coarse** by design: the columns record when a
request arrived, how long it queued, when it finished, whether it
escalated and what each leg billed — not per-batch start/finish times.
The rebuilt tree is therefore ``request → queue-wait → leg(fast) →
escalate`` with leg ends *estimated* from billed node-seconds (clamped
to the finish time).  The per-record fallback path produces the exact
same trees from materialized :class:`RequestRecord` objects, so the
two paths are interchangeable and testable against each other.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.obs.trace import Span, Trace

__all__ = [
    "failover_hop",
    "record_skeleton",
    "trace_from_record",
    "traces_from_report",
]


def _skeleton(
    *,
    payload: object,
    tier: float,
    arrival: float,
    finished: float,
    queue_wait: float,
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
        start_s=arrival,
        end_s=finished,
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
        Span(name="queue-wait", start_s=arrival, end_s=arrival + queue_wait),
    ]


def record_skeleton(record) -> List[Span]:
    """:func:`_skeleton` of one finished :class:`RequestRecord` — the
    base the live recorder hangs its attempt-level spans on."""
    return _skeleton(
        payload=record.payload,
        tier=record.tier,
        arrival=record.arrival_s,
        finished=record.finished_s,
        queue_wait=record.queue_wait_s,
        escalated=record.escalated,
        retries=record.retries,
        shed=record.shed,
        failed=record.failed,
        degraded=record.degraded,
        retry_denied=record.retry_denied,
        confidence=record.confidence,
    )


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


def _from_columns(columns) -> List[Trace]:
    arrival = columns.arrival_s
    finished = columns.finished_s
    qw_end = arrival + columns.queue_wait_s
    # Escalated requests: the fast leg ends (at the latest) when its
    # billed seconds elapse after the queue releases it; never past the
    # finish time.  Non-escalated requests end with the response.
    fast_end = np.where(
        columns.escalated,
        np.minimum(qw_end + columns.node_seconds_fast, finished),
        finished,
    )
    billed_accurate = columns.billed_accurate
    # Each row's legs are named by its own pair (routed runs mix pairs).
    pairs = columns.pairs
    pair_of = columns.pair_code.tolist()
    traces: List[Trace] = []
    for i in range(len(columns)):
        fast_version, accurate_version = pairs[pair_of[i]]
        accurate = (
            float(columns.node_seconds_accurate[i])
            if bool(billed_accurate[i])
            else None
        )
        escalated = bool(columns.escalated[i])
        failed = bool(columns.failed[i])
        traces.append(
            _coarse_trace(
                columns.request_ids[i],
                _skeleton(
                    payload=columns.payloads[i],
                    tier=float(columns.tier[i]),
                    arrival=float(arrival[i]),
                    finished=float(finished[i]),
                    queue_wait=float(columns.queue_wait_s[i]),
                    escalated=escalated,
                    retries=int(columns.retries[i]),
                    shed=bool(columns.shed[i]),
                    failed=failed,
                    degraded=bool(columns.degraded[i]),
                    retry_denied=bool(columns.retry_denied[i]),
                    confidence=float(columns.confidence[i]),
                ),
                escalated=escalated,
                failed=failed,
                fast_version=fast_version,
                fast_seconds=float(columns.node_seconds_fast[i]),
                fast_end=float(fast_end[i]),
                accurate_version=accurate_version,
                accurate_seconds=accurate,
            )
        )
    return traces


def _from_record(record) -> Trace:
    fast_version = record.versions_used[0] if record.versions_used else None
    accurate_version = (
        record.versions_used[1] if len(record.versions_used) > 1 else None
    )
    fast_seconds = (
        record.node_seconds.get(fast_version) if fast_version else None
    )
    accurate_seconds = (
        record.node_seconds.get(accurate_version) if accurate_version else None
    )
    qw_end = record.arrival_s + record.queue_wait_s
    if record.escalated and fast_seconds is not None:
        fast_end = min(qw_end + fast_seconds, record.finished_s)
    else:
        fast_end = record.finished_s
    return _coarse_trace(
        record.request_id,
        record_skeleton(record),
        escalated=record.escalated,
        failed=record.failed,
        fast_version=fast_version,
        fast_seconds=fast_seconds,
        fast_end=fast_end,
        accurate_version=accurate_version,
        accurate_seconds=accurate_seconds,
    )


#: Public single-record entry point: the synchronous gateway path uses
#: it to give sessions without a virtual clock the same coarse trees.
def trace_from_record(record) -> Trace:
    """Coarse span tree for one finished :class:`RequestRecord`."""
    return _from_record(record)


def traces_from_report(report) -> List[Trace]:
    """Rebuild coarse span trees for every request in a report.

    Takes the vectorized path when the report holds ``RecordColumns``
    (columnar engine), the per-record path otherwise.  Both produce
    identical traces for the same run.
    """
    if report.columns is not None:
        return _from_columns(report.columns)
    return [_from_record(record) for record in report.records]
