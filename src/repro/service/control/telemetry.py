"""Streaming, windowed serving telemetry.

Everything the control plane decides — SLO states, admission pressure,
when the policy adaptor may move a rung — is decided from a *trailing
window* of per-request records, not from whole-run aggregates: a breach
that started five virtual seconds ago must dominate a healthy first
hour.  :class:`TelemetryHub` is that window, and it is incremental: a
control tick costs what it decides, not a walk over every windowed
record.

The serving simulator is its one producer, through the duck-typed
plane: the scalar loop's ``observe`` calls :meth:`TelemetryHub.publish`
per record, the columnar loop's ``observe_rows`` hands
:meth:`TelemetryHub.publish_rows` the rows finalized since the last
tick (:meth:`TelemetryHub.publish_columns` is the same over a finished
report's arrays).  Either way every
field is read **once, at publish**, into parallel columns (time, tier,
outcome code, latency and cost in a dense :class:`_FloatWindow`; billed
``node_seconds`` items beside it) and the record is not kept.

:meth:`TelemetryHub.snapshot` *counts* and *defers*.  Counts are exact
integers: a per-tier tally that publish adds to and both eviction sites
(window horizon, ``max_records`` valve) subtract from — O(tiers), taken
with the snapshot.  Everything else (percentiles, per-tier windows,
per-version node-seconds, the cost mean) is computed when a consumer
first reads it, from the snapshot's own copy of the live float columns
and its slice of the append-only billing list, so a late read sees
exactly the window of the snapshot's instant.  A control tick therefore
pays for what its SLOs read — usually the whole-stream p95.  Float
aggregates reach SLO pressures and control-log text, so they are summed
strictly left to right: running float subtraction, ``ndarray.sum``
(pairwise) and builtin ``sum`` (compensated from Python 3.12) all round
differently from the per-record ``+=`` walk this replaced, which
``tests/oracle/telemetry_reference.py`` keeps as the oracle.  Each
percentile sorts its latency slice on first read
(:func:`repro.stats.descriptive.percentiles`).

Windowed percentiles carry a small-N guard: a p95 ranked over a handful
of samples is an artefact of quantile math, not a tail (with 4 samples
there is always exactly one "p95 outlier" by definition — the same
failure mode as rank-based tier classification over tiny component
counts).  :func:`guarded_percentile` therefore returns a
:class:`PercentileEstimate` whose ``low_confidence`` flag is set below
:data:`~repro.contract.MIN_PERCENTILE_SAMPLES` samples; consumers (the
SLO monitors) must not treat a flagged value as breach evidence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import checks
from repro.contract import MIN_PERCENTILE_SAMPLES
from repro.stats.descriptive import percentiles

__all__ = [
    "PercentileEstimate",
    "TelemetryHub",
    "TierWindow",
    "WindowSnapshot",
    "guarded_percentile",
]


@dataclass(frozen=True)
class PercentileEstimate:
    """A windowed percentile together with its evidential weight.

    Attributes:
        q: The percentile requested, in ``[0, 100]``.
        value: The estimate (``nan`` over an empty window).
        n: Number of samples it was ranked over.
        low_confidence: True when ``n`` is below the guard threshold —
            the value is reported (a dashboard still wants a number) but
            must not count as breach evidence on its own.
    """

    q: float
    value: float
    n: int
    low_confidence: bool

    @property
    def reliable(self) -> bool:
        """Whether the estimate rests on enough samples to act on."""
        return not self.low_confidence


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
    n = len(values)
    value = percentiles(values, (q,))[0]
    return PercentileEstimate(q, value, n, low_confidence=n < max(min_samples, 1))


@dataclass(frozen=True)
class TierWindow:
    """Per-tier slice of one window snapshot.

    Attributes:
        tier: The tolerance annotation the slice covers.
        n: Requests of this tier that resolved inside the window.
        n_failed: Terminal failures among them.
        n_shed: Requests shed by admission control.
        n_degraded: Requests force-degraded to the fast tier.
        p95_latency: Guarded p95 over the tier's successful responses.
        mean_cost: Mean billed cost per answered request (``nan`` when
            none were answered).
    """

    tier: float
    n: int
    n_failed: int
    n_shed: int
    n_degraded: int
    p95_latency: PercentileEstimate
    mean_cost: float


class WindowSnapshot:
    """Aggregate view of the trailing telemetry window at one instant.

    Built by :meth:`TelemetryHub.snapshot`.  The counts are taken with
    the snapshot; every other field is computed on first read (and
    kept), from the window as it stood at :attr:`now` — a late read sees
    no row published after it.

    Attributes:
        now: Virtual time the snapshot was taken.
        window_s: Nominal window length.
        span_s: Effective span the rates are normalised over (shorter
            than ``window_s`` while the run is younger than one window).
        n: Records in the window (successes + failures + sheds).
        n_failed: Terminal failures in the window.
        n_shed: Requests shed by admission control.
        n_degraded: Requests served force-degraded.
        p50_latency / p95_latency / p99_latency: Guarded percentiles over
            successful responses.
        goodput_rps: Successful responses per second over ``span_s``.
        availability: Fraction of windowed requests that got an answer
            (sheds count against it); ``nan`` over an empty window.
        node_seconds: Billed node-seconds per version inside the window.
        node_seconds_per_s: Total node-seconds burn rate over ``span_s``.
        mean_cost: Mean billed cost per answered request.
        tiers: Per-tier breakdowns, keyed by tolerance.
    """

    def __init__(
        self,
        now: float,
        window_s: float,
        span_s: float,
        counts: Dict[float, List[int]],
        rows: np.ndarray,
        objects: Tuple[list, int, int],
    ) -> None:
        self.now = now
        self.window_s = window_s
        self.span_s = span_s
        totals = [sum(column) for column in zip(*counts.values())] or [0, 0, 0, 0]
        self.n = sum(totals)
        self.n_failed = totals[_FAILED]
        self.n_shed = totals[_SHED]
        self.n_degraded = totals[_DEGRADED]
        n_answered = totals[_ANSWERED] + totals[_DEGRADED]
        self.goodput_rps = n_answered / span_s
        self.availability = (n_answered / self.n) if self.n else float("nan")
        self._counts = {tier: tuple(tally) for tier, tally in counts.items()}
        #: Own copy of the live (time, tier, code, latency, cost) columns,
        self._rows = rows
        #: and ``(billed, start, stop)``: the live slice of the hub's
        #: billing list, which only ever grows past ``stop``.
        self._objects = objects

    @property
    def n_answered(self) -> int:
        """Windowed requests that resolved with a response."""
        return self.n - self.n_failed - self.n_shed

    @cached_property
    def _answered(self) -> np.ndarray:
        return self._rows[2] <= _DEGRADED

    @cached_property
    def _latency_ok(self) -> np.ndarray:
        return self._rows[3][self._answered]

    # Each percentile sorts on its own first read: a tick's SLOs read p95.
    @cached_property
    def p50_latency(self) -> PercentileEstimate:
        return guarded_percentile(self._latency_ok, 50.0)

    @cached_property
    def p95_latency(self) -> PercentileEstimate:
        return guarded_percentile(self._latency_ok, 95.0)

    @cached_property
    def p99_latency(self) -> PercentileEstimate:
        return guarded_percentile(self._latency_ok, 99.0)

    @cached_property
    def mean_cost(self) -> float:
        return _ordered_mean(self._rows[4][self._answered])

    @cached_property
    def node_seconds(self) -> Dict[str, float]:
        # Versions appear in the order a walk over the live rows first
        # meets them.
        billed, start, stop = self._objects
        node_seconds: Dict[str, float] = {}
        for version, seconds in chain.from_iterable(billed[start:stop]):
            node_seconds[version] = node_seconds.get(version, 0.0) + seconds
        return node_seconds

    @cached_property
    def node_seconds_per_s(self) -> float:
        burn = 0.0
        for seconds in self.node_seconds.values():
            burn += seconds
        return burn / self.span_s

    @cached_property
    def tiers(self) -> Dict[float, TierWindow]:
        _, tier_of, _, _, cost = self._rows
        answered, latency_ok = self._answered, self._latency_ok
        tier_ok, cost_ok = tier_of[answered], cost[answered]
        counts = self._counts
        # Tiers appear in the order a walk over the live rows first meets
        # them.
        tiers: Dict[float, TierWindow] = {}
        for tier in sorted(counts, key=lambda tier: (tier_of == tier).argmax()):
            tally, served = counts[tier], tier_ok == tier
            tiers[tier] = TierWindow(
                tier=tier,
                n=sum(tally),
                n_failed=tally[_FAILED],
                n_shed=tally[_SHED],
                n_degraded=tally[_DEGRADED],
                p95_latency=guarded_percentile(latency_ok[served], 95.0),
                mean_cost=_ordered_mean(cost_ok[served]),
            )
        return tiers

    def for_tier(self, tier: Optional[float]) -> "WindowSnapshot | TierWindow":
        """The whole-stream snapshot, or one tier's slice.

        Args:
            tier: ``None`` for the whole stream; a tolerance otherwise.
                An unseen tier returns an empty :class:`TierWindow`.
        """
        if tier is None:
            return self
        window = self.tiers.get(float(tier))
        if window is None:
            window = TierWindow(
                tier=float(tier),
                n=0,
                n_failed=0,
                n_shed=0,
                n_degraded=0,
                p95_latency=guarded_percentile((), 95.0),
                mean_cost=float("nan"),
            )
        return window


class _FloatWindow:
    """A dense sliding window of parallel ``float64`` columns.

    Append-only at the tail, evict-only at the head — exactly the access
    pattern of a trailing telemetry window.  The columns are the rows of
    one numpy buffer, so each stays contiguous, and :meth:`view` exposes
    their shared live region as a zero-copy slice.  When the buffer fills
    and more than half is dead space (evicted head) the live region is
    compacted in place; otherwise it moves to a buffer twice what it needs.
    """

    __slots__ = ("_buf", "_start", "_end")

    def __init__(self, fields: int = 1, capacity: int = 1024) -> None:
        self._buf = np.empty((fields, capacity))
        self._start = self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, values) -> None:
        """Push rows at the tail: ``values`` holds one sequence per column."""
        buf = self._buf
        values = np.asarray(values, dtype=float).reshape(len(buf), -1)
        start, end, m = self._start, self._end, values.shape[1]
        if end + m > buf.shape[1]:
            live = end - start
            if not (start > live and live + m <= buf.shape[1]):
                self._buf = np.empty((len(buf), max(2 * (live + m), 16)))
            self._buf[:, :live] = buf[:, start:end]
            self._start, end, buf = 0, live, self._buf
        buf[:, end : end + m] = values
        self._end = end + m

    def pop_oldest(self, k: int = 1) -> None:
        """Evict the ``k`` head rows (O(1): the live region just advances)."""
        self._start += k

    def view(self) -> np.ndarray:
        """The live rows, one array row per column, as a zero-copy slice."""
        return self._buf[:, self._start : self._end]


#: Row outcome codes; a per-tier tally is indexed by them.
_ANSWERED, _DEGRADED, _FAILED, _SHED = range(4)
#: What publish reads per row, beside time and ``node_seconds``.
_ROW_FIELDS = operator.attrgetter(
    "tier", "shed", "failed", "degraded", "response_time_s", "invocation_cost"
)


def _ordered_mean(values: np.ndarray) -> float:
    """Mean whose sum is taken strictly left to right, rounding as a
    ``+=`` loop does (``nan`` over no values)."""
    n = len(values)
    return float(values.cumsum()[-1]) / n if n else float("nan")


class TelemetryHub:
    """Incremental sliding window over the per-request record stream.

    Args:
        window_s: Trailing window length on the publisher's clock.
        max_records: Hard bound on buffered rows; the oldest are dropped
            first.  Sized so any sane window fits; this is a memory
            valve, not a semantic knob.
    """

    def __init__(
        self,
        window_s: float = 10.0,
        *,
        max_records: int = 100_000,
    ) -> None:
        self.window_s = float(checks.positive("window_s", window_s))
        self._max_records = max_records
        #: Per live row: publish time, tier, outcome code, latency, cost —
        self._rows = _FloatWindow(5)
        #: — and its billed ``node_seconds`` items (in the record's own key
        #: order; none unless the row was answered), in a list that is
        #: only appended to: the live rows are those from ``_head`` on,
        #: and compaction starts a new list, so a snapshot's slice of the
        #: old one stays as it was.
        self._billed: List[Tuple[Tuple[str, float], ...]] = []
        self._head = 0
        #: tier -> live rows ``[answered, degraded, failed, shed]``; a
        #: tier leaves with its last row.
        self._counts: Dict[float, List[int]] = {}
        self._published = 0
        self._last_time = 0.0

    # ------------------------------------------------------------------
    # producer surface
    # ------------------------------------------------------------------
    def publish(self, record, now: Optional[float] = None) -> None:
        """Fold one request record into the window.

        Publish times must be non-decreasing (the engine emits in clock
        order).

        Args:
            record: A :class:`~repro.service.simulation.report.RequestRecord`
                (or anything with its fields).
            now: Publish time; defaults to the record's ``finished_s``.
        """
        t = float(record.finished_s if now is None else now)
        self._append([(t, *_ROW_FIELDS(record), record.node_seconds)])

    def publish_columns(self, columns, rows: slice, times: np.ndarray) -> None:
        """Fold a slice of report columns into the window: the many-row
        :meth:`publish`, with no record built.

        Args:
            columns: A :class:`~repro.service.simulation.report.RecordColumns`
                (it names its arrays as a record names its fields).
            rows: The rows to publish, in completion order.
            times: Their publish times (non-decreasing).
        """
        self.publish_rows(
            list(
                zip(
                    times.tolist(),
                    *(column[rows].tolist() for column in _ROW_FIELDS(columns)),
                    columns.row_node_seconds(rows),
                )
            )
        )

    def publish_rows(self, rows: List[tuple]) -> None:
        """Fold rows a producer holds no records for: the many-row
        :meth:`publish` behind :meth:`publish_columns` and the columnar
        event loop's control ticks.

        Args:
            rows: ``(now, tier, shed, failed, degraded, response_time_s,
                invocation_cost, node_seconds)`` per row, in
                completion order (``now`` non-decreasing).
        """
        self._append(rows)

    def _append(self, rows) -> None:
        """The one append: the rows' columns and the tallies (an
        out-of-order row rejects the whole call before any of them)."""
        fields, legs, last = [], [], self._last_time
        for t, tier, shed, failed, degraded, latency, cost, billed in rows:
            if t < last - 1e-12:
                raise ValueError(
                    f"telemetry published out of order: {t:.6f} after {last:.6f}"
                )
            last = max(last, t)
            code = (
                _SHED if shed else _FAILED if failed
                else _DEGRADED if degraded else _ANSWERED
            )
            fields.append((t, float(tier), code, latency, cost))
            legs.append(tuple(billed.items()) if code <= _DEGRADED else ())
        self._last_time = last
        for _, tier, code, _, _ in fields:
            self._counts.setdefault(tier, [0, 0, 0, 0])[code] += 1
        self._rows.append(list(zip(*fields)))
        head = self._head
        if head > len(self._billed) // 2:
            self._billed = self._billed[head:]
            self._head = 0
        self._billed.extend(legs)
        self._published += len(fields)
        if self._max_records is not None:
            # The memory valve drops the oldest rows.
            self._drop(len(self._rows) - self._max_records)

    @property
    def total_published(self) -> int:
        """Records published over the hub's lifetime (not just the window)."""
        return self._published

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # windowed aggregation
    # ------------------------------------------------------------------
    def _drop(self, k: int) -> None:
        """Evict the ``k`` oldest rows and take them out of the tallies."""
        if k <= 0:
            return
        counts = self._counts
        _, tiers, codes, _, _ = self._rows.view()[:, :k].tolist()
        for tier, code in zip(tiers, codes):
            counts[tier][int(code)] -= 1
            if not any(counts[tier]):
                del counts[tier]
        self._head += k
        self._rows.pop_oldest(k)

    def snapshot(self, now: float) -> WindowSnapshot:
        """Aggregate the trailing window as of ``now``.

        Evicts and counts now; the rest of the snapshot is computed when
        first read (see :class:`WindowSnapshot`).  Eviction is
        destructive (rows older than one window are gone), so snapshots
        must be taken with non-decreasing ``now`` — which both producers
        guarantee.
        """
        times, horizon, k = self._rows.view()[0], now - self.window_s, 0
        while k < len(times) and times[k] < horizon:
            k += 1  # head rows only: stop at the first one still inside
        self._drop(k)
        span = self.window_s if now >= self.window_s else max(now, 1e-9)
        return WindowSnapshot(
            now,
            self.window_s,
            span,
            self._counts,
            # A copy: appends compact the live region in place.
            self._rows.view().copy(),
            (self._billed, self._head, len(self._billed)),
        )
