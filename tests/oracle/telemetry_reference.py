"""The per-snapshot walk the incremental telemetry window replaced.

Reference implementation for ``tests/control``: the ring-of-records
:class:`TelemetryHub`, its ``_FloatWindow`` latency buffer and the
``np.percentile``-based :func:`guarded_percentile`, moved here verbatim
from ``src/repro/service/control/telemetry.py`` when the hub became
column-backed.  :meth:`ReferenceTelemetryHub.snapshot` re-reads every
windowed record on every call — slow, and obviously right — and builds
the production ``WindowSnapshot`` / ``TierWindow`` / ``PercentileEstimate``
types, so the differential tests compare field by field.  Do not
optimise this file.

One deliberate difference from the moved code: its two builtin ``sum``
calls (per-tier ``mean_cost``, ``node_seconds_per_s``) are spelled as
:func:`_loop_sum`.  Builtin ``sum`` over floats is a plain ``+=`` loop up
to Python 3.11 and Neumaier-compensated from 3.12, so the builtin would
make this reference mean different things on the two CI interpreters;
the loop is what it computed on 3.10 / 3.11.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contract import MIN_PERCENTILE_SAMPLES
from repro.service.control.telemetry import PercentileEstimate, TierWindow


@dataclass(frozen=True)
class WindowSnapshot:
    """The fields of the production ``WindowSnapshot``, all computed."""

    now: float
    window_s: float
    span_s: float
    n: int
    n_failed: int
    n_shed: int
    n_degraded: int
    p50_latency: PercentileEstimate
    p95_latency: PercentileEstimate
    p99_latency: PercentileEstimate
    goodput_rps: float
    availability: float
    node_seconds: Dict[str, float]
    node_seconds_per_s: float
    mean_cost: float
    tiers: Dict[float, TierWindow]


def _loop_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def guarded_percentile(
    values: Sequence[float],
    q: float,
    *,
    min_samples: int = MIN_PERCENTILE_SAMPLES,
) -> PercentileEstimate:
    """Rank a percentile with the small-N guard applied.

    Args:
        values: The windowed sample (may be empty).
        q: Percentile in ``[0, 100]``.
        min_samples: Sample count below which the estimate is flagged.

    Raises:
        ValueError: If ``q`` is outside ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    arr = np.asarray(values, dtype=float)
    n = int(arr.size)
    if n == 0:
        return PercentileEstimate(q=q, value=float("nan"), n=0, low_confidence=True)
    return PercentileEstimate(
        q=q,
        value=float(np.percentile(arr, q)),
        n=n,
        low_confidence=n < min_samples,
    )


class _FloatWindow:
    """A dense sliding window of ``float64`` samples.

    Append-only at the tail, evict-only at the head — exactly the access
    pattern of a trailing telemetry window.  Samples live in one numpy
    buffer; :meth:`view` exposes the live region as a zero-copy slice, so
    percentile ranking never materializes a Python list.  The buffer
    grows geometrically; when it fills and more than half is dead space
    (evicted head), the live region is compacted in place instead.
    """

    __slots__ = ("_buf", "_start", "_end")

    def __init__(self, capacity: int = 1024) -> None:
        self._buf = np.empty(capacity, dtype=np.float64)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, value: float) -> None:
        """Push one sample at the tail."""
        buf = self._buf
        if self._end == buf.shape[0]:
            live = self._end - self._start
            if self._start > live:
                # More than half the buffer is evicted head: reclaim it.
                buf[:live] = buf[self._start : self._end]
            else:
                grown = np.empty(max(2 * buf.shape[0], 16), dtype=np.float64)
                grown[:live] = buf[self._start : self._end]
                self._buf = buf = grown
            self._start, self._end = 0, live
        buf[self._end] = value
        self._end += 1

    def pop_oldest(self) -> None:
        """Evict the head sample (O(1): the live region just advances)."""
        self._start += 1

    def view(self) -> np.ndarray:
        """The live window as a zero-copy ``float64`` slice."""
        return self._buf[self._start : self._end]


class ReferenceTelemetryHub:
    """Ring-buffer sliding window over the per-request record stream.

    Args:
        window_s: Trailing window length on the publisher's clock.
        max_records: Hard bound on buffered records (the ring); the
            oldest entries are dropped first.  Sized so any sane window
            fits; this is a memory valve, not a semantic knob.
    """

    def __init__(
        self,
        window_s: float = 10.0,
        *,
        max_records: int = 100_000,
    ) -> None:
        if window_s <= 0.0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        #: Ring entries are ``(publish_time, record, answered)``; the
        #: third field marks records that contributed a sample to the
        #: parallel latency window, so eviction keeps the two in step.
        self._ring: Deque[Tuple[float, object, bool]] = deque(
            maxlen=max_records
        )
        self._latencies = _FloatWindow()
        self._published = 0
        self._last_time = 0.0

    def publish(self, record, now: Optional[float] = None) -> None:
        """Fold one request record into the window.

        Publish times must be non-decreasing.

        Args:
            record: A :class:`~repro.service.simulation.report.RequestRecord`
                (or anything with its fields).
            now: Publish time; defaults to the record's ``finished_s``.
        """
        t = float(record.finished_s if now is None else now)
        if t < self._last_time - 1e-12:
            raise ValueError(
                f"telemetry published out of order: {t:.6f} after "
                f"{self._last_time:.6f}"
            )
        self._last_time = max(self._last_time, t)
        answered = not getattr(record, "shed", False) and not record.failed
        ring = self._ring
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            # The memory valve drops the oldest entry; do it explicitly
            # so the latency window advances with it.
            if ring.popleft()[2]:
                self._latencies.pop_oldest()
        ring.append((t, record, answered))
        if answered:
            self._latencies.append(record.response_time_s)
        self._published += 1

    @property
    def total_published(self) -> int:
        """Records published over the hub's lifetime (not just the window)."""
        return self._published

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # windowed aggregation
    # ------------------------------------------------------------------
    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        ring = self._ring
        latencies = self._latencies
        while ring and ring[0][0] < horizon:
            if ring.popleft()[2]:
                latencies.pop_oldest()

    def snapshot(self, now: float) -> WindowSnapshot:
        """Aggregate the trailing window as of ``now``.

        Eviction is destructive (records older than one window are
        gone), so snapshots must be taken with non-decreasing ``now`` —
        which both producers guarantee.
        """
        self._evict(now)
        records = [entry[1] for entry in self._ring]
        # Whole-stream percentiles rank over the parallel latency window:
        # a zero-copy float64 slice, kept in lockstep with the ring, in
        # the same publish order the old per-snapshot list had.
        latencies = self._latencies.view()
        span = self.window_s if now >= self.window_s else max(now, 1e-9)

        node_seconds: Dict[str, float] = {}
        n_failed = n_shed = n_degraded = 0
        cost_sum = 0.0
        by_tier: Dict[float, List[object]] = {}
        for r in records:
            by_tier.setdefault(float(r.tier), []).append(r)
            if getattr(r, "shed", False):
                n_shed += 1
                continue
            if r.failed:
                n_failed += 1
                continue
            if getattr(r, "degraded", False):
                n_degraded += 1
            cost_sum += r.invocation_cost
            for version, seconds in r.node_seconds.items():
                node_seconds[version] = node_seconds.get(version, 0.0) + seconds

        n = len(records)
        n_answered = n - n_failed - n_shed
        min_samples = MIN_PERCENTILE_SAMPLES
        tiers: Dict[float, TierWindow] = {}
        for tier, tier_records in by_tier.items():
            t_shed = sum(1 for r in tier_records if getattr(r, "shed", False))
            t_failed = sum(
                1
                for r in tier_records
                if r.failed and not getattr(r, "shed", False)
            )
            t_degraded = sum(
                1
                for r in tier_records
                if getattr(r, "degraded", False)
                and not r.failed
                and not getattr(r, "shed", False)
            )
            answered = [
                r
                for r in tier_records
                if not r.failed and not getattr(r, "shed", False)
            ]
            tiers[tier] = TierWindow(
                tier=tier,
                n=len(tier_records),
                n_failed=t_failed,
                n_shed=t_shed,
                n_degraded=t_degraded,
                p95_latency=guarded_percentile(
                    [r.response_time_s for r in answered],
                    95.0,
                    min_samples=min_samples,
                ),
                mean_cost=(
                    _loop_sum(r.invocation_cost for r in answered) / len(answered)
                    if answered
                    else float("nan")
                ),
            )

        return WindowSnapshot(
            now=now,
            window_s=self.window_s,
            span_s=span,
            n=n,
            n_failed=n_failed,
            n_shed=n_shed,
            n_degraded=n_degraded,
            p50_latency=guarded_percentile(latencies, 50.0, min_samples=min_samples),
            p95_latency=guarded_percentile(latencies, 95.0, min_samples=min_samples),
            p99_latency=guarded_percentile(latencies, 99.0, min_samples=min_samples),
            goodput_rps=n_answered / span,
            availability=(n_answered / n) if n else float("nan"),
            node_seconds=node_seconds,
            node_seconds_per_s=_loop_sum(node_seconds.values()) / span,
            mean_cost=(cost_sum / n_answered) if n_answered else float("nan"),
            tiers=tiers,
        )
