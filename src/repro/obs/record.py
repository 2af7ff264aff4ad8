"""Live per-event trace recording for the legacy engine.

:class:`SimTraceRecorder` is the object the
:class:`~repro.service.simulation.engine.ServingSimulator` drives when a
trace collector is attached: the engine calls its narrow hook methods
(duck-typed, mirroring how the control plane is wired — the engine
imports nothing from this package) at arrival, enqueue, completion,
failure, retry, escalation and finalize time, and the recorder
assembles one :class:`~repro.obs.trace.Trace` per request as it
finalizes.

The recorder draws **nothing** from any RNG and never mutates engine
state — attaching one cannot change a report digest.  When the
columnar engine drains a run, the engine instead hands the finished
report to :meth:`on_columnar_report`, which passes its columns on as a
:class:`~repro.obs.reconstruct.ColumnSegment`: the hot path stays
hook-free and no tree is built until someone asks for one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.reconstruct import (
    ColumnSegment,
    failover_hop,
    record_skeleton,
)
from repro.obs.trace import Span, SpanEvent, Trace, TraceCollector

__all__ = ["SimTraceRecorder"]


class _Attempt:
    """Staging for one job attempt of one leg."""

    __slots__ = (
        "version",
        "leg",
        "attempt",
        "enqueued_at",
        "started_at",
        "finished_at",
        "status",
        "seconds",
        "batch_size",
        "node",
        "events",
    )

    def __init__(
        self, version: str, leg: str, attempt: int, enqueued_at: float
    ) -> None:
        self.version = version
        self.leg = leg
        self.attempt = attempt
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.status = "open"
        self.seconds: Optional[float] = None
        self.batch_size: Optional[int] = None
        self.node: Optional[str] = None
        self.events: List[SpanEvent] = []


class _Staging:
    """Everything recorded about one in-flight request."""

    __slots__ = ("arrival", "epoch", "events", "attempts", "retries")

    def __init__(self, arrival: float, epoch: int) -> None:
        self.arrival = arrival
        self.epoch = epoch
        #: Root-span events (admission actions, deflated answers, faults).
        self.events: List[SpanEvent] = []
        self.attempts: List[_Attempt] = []
        #: Retry backoffs: ``(version, attempt, scheduled_at, release_at)``.
        self.retries: List[Tuple[str, int, float, float]] = []


class SimTraceRecorder:
    """Assembles span trees from the legacy engine's event stream.

    Args:
        collector: The :class:`~repro.obs.trace.TraceCollector` finished
            traces are appended to, in completion order.
    """

    def __init__(self, collector: TraceCollector) -> None:
        self.collector = collector
        self._staging: Dict[str, _Staging] = {}
        #: Hot-swap epoch counter: bumped per applied configuration swap,
        #: stamped on requests that arrive afterwards.
        self._epoch = 0
        #: Failover annotations keyed by request id:
        #: ``(home_region, served_region, extra_latency_s)``.
        self._failover: Dict[str, Tuple[str, str, float]] = {}

    # ------------------------------------------------------------------
    # region-runner annotations
    # ------------------------------------------------------------------
    def annotate_failover(
        self,
        request_id: str,
        *,
        home: str,
        served: str,
        extra_latency_s: float,
    ) -> None:
        """Mark a request as failover traffic before the run starts."""
        self._failover[request_id] = (home, served, float(extra_latency_s))

    # ------------------------------------------------------------------
    # engine hooks (legacy event loop)
    # ------------------------------------------------------------------
    def on_arrival(self, request_id: str, now: float) -> None:
        self._staging[request_id] = _Staging(now, self._epoch)

    def on_admission(
        self, request_id: str, action: str, detail: str, now: float
    ) -> None:
        staging = self._staging.get(request_id)
        event = SpanEvent(now, f"admission-{action}", detail)
        if staging is not None:
            staging.events.append(event)

    def on_attempt(
        self,
        request_id: str,
        version: str,
        leg: str,
        attempt: int,
        now: float,
        *,
        parked: bool,
    ) -> None:
        staging = self._staging.get(request_id)
        if staging is None:
            return
        record = _Attempt(version, leg, attempt, now)
        if parked:
            record.events.append(
                SpanEvent(now, "parked", "no live node in pool")
            )
        staging.attempts.append(record)

    def _open_attempt(
        self, request_id: str, version: str
    ) -> Optional[_Attempt]:
        staging = self._staging.get(request_id)
        if staging is None:
            return None
        for record in reversed(staging.attempts):
            if record.version == version and record.status == "open":
                return record
        return None

    def on_attempt_done(
        self,
        request_id: str,
        version: str,
        completion,
        node_id: Optional[str],
    ) -> None:
        record = self._open_attempt(request_id, version)
        if record is None:
            return
        record.started_at = completion.started_at
        record.finished_at = completion.finished_at
        record.seconds = completion.amortized_seconds
        record.batch_size = completion.batch_size
        record.node = node_id
        record.status = "ok"

    def on_attempt_failed(
        self,
        request_id: str,
        version: str,
        now: float,
        reason: str,
    ) -> None:
        record = self._open_attempt(request_id, version)
        if record is None:
            return
        record.finished_at = now
        record.status = "failed"
        record.events.append(SpanEvent(now, "fault", reason))

    def on_retry_wait(
        self,
        request_id: str,
        version: str,
        attempt: int,
        now: float,
        delay: float,
    ) -> None:
        staging = self._staging.get(request_id)
        if staging is not None:
            staging.retries.append((version, attempt, now, now + delay))

    def on_retry_denied(
        self, request_id: str, version: str, now: float
    ) -> None:
        staging = self._staging.get(request_id)
        if staging is not None:
            staging.events.append(
                SpanEvent(now, "retry-denied", f"budget denied {version}")
            )

    def on_escalated(self, request_id: str, now: float) -> None:
        staging = self._staging.get(request_id)
        if staging is not None:
            staging.events.append(SpanEvent(now, "escalated", ""))

    def on_migrated(
        self, request_id: str, version: str, now: float, *, parked: bool
    ) -> None:
        record = self._open_attempt(request_id, version)
        if record is not None:
            record.events.append(
                SpanEvent(
                    now,
                    "crash-migrated",
                    "parked behind dead pool" if parked else "requeued",
                )
            )

    def on_deflated(
        self, request_id: str, node_id: Optional[str], factor: float, now: float
    ) -> None:
        staging = self._staging.get(request_id)
        if staging is not None:
            staging.events.append(
                SpanEvent(
                    now, "confidence-deflated", f"factor x{factor:g}"
                )
            )

    def on_epoch(self, now: float, config_id: str) -> None:
        self._epoch += 1
        self.collector.add_run_event(
            now, "control:hot-swap", f"epoch {self._epoch}: {config_id}"
        )

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def on_finalized(self, record, now: float) -> None:
        """Build and emit the request's trace from its final record."""
        staging = self._staging.pop(record.request_id, None)
        trace = self._build(record, staging)
        self.collector.add_trace(trace)

    def _build(self, record, staging: Optional[_Staging]) -> Trace:
        root, *spans = record_skeleton(record)
        if staging is not None and staging.epoch:
            root.attrs["epoch"] = staging.epoch
        failover = self._failover.get(record.request_id)
        if failover is not None:
            spans.append(failover_hop(root, *failover))
        if staging is not None:
            root.events.extend(staging.events)
            end = record.finished_s
            for attempt in staging.attempts:
                leg_end = (
                    attempt.finished_at
                    if attempt.finished_at is not None
                    else end
                )
                leg_status = (
                    "cancelled" if attempt.status == "open" else attempt.status
                )
                leg_start = (
                    attempt.started_at
                    if attempt.started_at is not None
                    else attempt.enqueued_at
                )
                if (
                    attempt.leg == "accurate"
                    and attempt.started_at is not None
                    and attempt.started_at > attempt.enqueued_at
                ):
                    spans.append(
                        Span(
                            name="escalate-wait",
                            start_s=attempt.enqueued_at,
                            end_s=attempt.started_at,
                            attrs={"version": attempt.version},
                        )
                    )
                leg = Span(
                    name="leg",
                    start_s=leg_start,
                    end_s=leg_end,
                    status=leg_status,
                    attrs={
                        "version": attempt.version,
                        "leg": attempt.leg,
                        "attempt": attempt.attempt,
                    },
                    events=attempt.events,
                )
                if attempt.seconds is not None:
                    leg.attrs["seconds"] = float(attempt.seconds)
                if attempt.batch_size is not None:
                    leg.attrs["batch_size"] = int(attempt.batch_size)
                if attempt.node is not None:
                    leg.attrs["node"] = attempt.node
                spans.append(leg)
            for version, attempt_no, scheduled, release in staging.retries:
                spans.append(
                    Span(
                        name="retry-backoff",
                        start_s=scheduled,
                        end_s=release,
                        attrs={"version": version, "attempt": attempt_no},
                    )
                )
        # Chronological, stable: creation order breaks start-time ties.
        spans.sort(key=lambda span: span.start_s)
        return Trace(request_id=record.request_id, spans=[root] + spans)

    # ------------------------------------------------------------------
    # run-level wiring
    # ------------------------------------------------------------------
    def on_columnar_report(self, report) -> None:
        """A columnar-drained run reaches the collector as one segment:
        its columns, reconstructed into trees only if someone asks."""
        self.collector.add_segment(
            ColumnSegment(report.columns, self._failover)
        )

    def on_run_complete(self, fault_log, control_log) -> None:
        """Fold the run's fault and control logs into run-level events.

        ``node_id`` is deliberately dropped from fault entries (it is
        process-local, the same exclusion the report digest applies);
        control entries keep their region tag when the shard runner set
        one.
        """
        for entry in fault_log:
            self.collector.add_run_event(
                entry.time_s,
                f"fault:{entry.kind}",
                f"{entry.version}: {entry.detail}",
            )
        for entry in control_log:
            self.collector.add_run_event(
                entry.time_s,
                f"control:{entry.kind}",
                entry.detail,
                getattr(entry, "region", None),
            )
