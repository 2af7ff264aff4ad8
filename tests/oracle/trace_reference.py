"""The trace digest contract version 3 replaced, one span at a time.

Version 2 of :meth:`repro.obs.TraceCollector.digest` hashed one text line
per span — the request id, name, ``%.12e`` timestamps, status, the
digested attributes (``node`` excluded, sorted keys, floats ``%.12e``,
booleans ``0`` / ``1``) and the events — then one line per run event.
:func:`trace_digest_v2` renders exactly those bytes from a collector's
trees, kept to prove that the version 3 bump changed the hash, not what
was recorded (``tests/service/test_digest_contract.py``).  Slow, and
obviously right.  Do not optimise this file.
"""

from __future__ import annotations

import hashlib


def _text(value: object) -> str:
    """A value as version 2 printed it."""
    if isinstance(value, bool):
        return "%d" % value
    if isinstance(value, float):
        return "%.12e" % value
    return "%s" % (value,)


def span_line(request_id: str, span) -> str:
    """One span's version 2 digest line."""
    attrs = ";".join(
        f"{key}={_text(span.attrs[key])}"
        for key in sorted(span.attrs)
        if key != "node"
    )
    events = ";".join(
        f"{_text(e.time_s)}:{e.name}:{e.detail}" for e in span.events
    )
    return (
        f"{request_id}|{span.name}|{_text(span.start_s)}|{_text(span.end_s)}|"
        f"{span.status}|{attrs}|{events}\n"
    )


def trace_digest_v2(collector) -> str:
    """What ``collector.digest()`` returned under contract version 2."""
    h = hashlib.sha256()
    for trace in collector.traces:
        for span in trace.spans:
            h.update(span_line(trace.request_id, span).encode())
    for time_s, kind, detail, region in collector.run_events:
        h.update(f"event:{_text(time_s)}|{kind}|{detail}|{region or ''}\n".encode())
    return h.hexdigest()
