"""Deterministic per-request observability for the serving stack.

``repro.obs`` adds the span layer the aggregate telemetry cannot
provide: one span tree per request — ``submit → queue-wait → leg →
escalate → retry/backoff → failover-hop → complete|failed|shed`` — on
the simulator's virtual clock, with trace and span ids derived from
request ids (zero RNG draws) so a recorded run is bit-reproducible.

The subsystem is strictly opt-in: with no collector attached the
engines take the exact code paths they took before (every golden,
chaos and region digest is bit-identical), and with one attached the
*report* digests are still unchanged — the trace gets its own stable
digest, pinned by its own goldens.

Modules:

- :mod:`repro.obs.trace` — span model, :class:`TraceCollector`
  (JSONL export/load, stable digest, ``TraceArrivals`` round-trip).
- :mod:`repro.obs.record` — :class:`SimTraceRecorder`, the per-attempt
  instrumentation the event loop drives on fault and control runs.
- :mod:`repro.obs.reconstruct` — vectorized post-hoc span
  reconstruction from the columnar engine's ``RecordColumns``.
- :mod:`repro.obs.critical_path` — per-request stage breakdown and
  aggregate "where did p95 go" attribution tables.
- :mod:`repro.obs.summarize` — ``python -m repro.obs.summarize`` CLI.
"""

from repro.obs.critical_path import (
    aggregate_breakdown,
    breakdown,
    format_breakdown_table,
    request_class,
    tail_attribution,
)
from repro.obs.record import SimTraceRecorder
from repro.obs.reconstruct import trace_from_record, traces_from_report
from repro.obs.trace import Span, SpanEvent, Trace, TraceCollector

__all__ = [
    "SimTraceRecorder",
    "Span",
    "SpanEvent",
    "Trace",
    "TraceCollector",
    "aggregate_breakdown",
    "breakdown",
    "format_breakdown_table",
    "request_class",
    "tail_attribution",
    "trace_from_record",
    "traces_from_report",
]
