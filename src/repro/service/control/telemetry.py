"""Streaming, windowed serving telemetry.

Everything the control plane decides — SLO states, admission pressure,
when the policy adaptor may move a rung — is decided from a *trailing
window* of per-request records, not from whole-run aggregates: a breach
that started five virtual seconds ago must dominate a healthy first
hour.  :class:`TelemetryHub` is that window, and it is incremental: a
control tick costs what it decides, not a walk over every windowed
record.

The serving simulator is its one producer, through the duck-typed
plane: its loop's ``observe_rows`` hands
:meth:`TelemetryHub.publish_rows` the rows finalized since the last
tick (:meth:`TelemetryHub.publish_columns` is the same over a finished
report's arrays), and the test suite's scalar reference loop's
``observe`` calls :meth:`TelemetryHub.publish` per record.  Either way every field is read **once, at publish**,
into one ``(time, tier, outcome code, latency, cost, billed
node_seconds items)`` tuple per row, and the record is not kept.

The window keeps, beside its rows, exactly what a tick reads:

* **counts** — whole-stream totals and a per-tier tally per outcome,
  exact integers that publish adds to and both eviction sites (window
  horizon, ``max_records`` valve) subtract from;
* **ranks** — every answered latency in one sorted list: publish inserts
  (a binary search plus a list insert), eviction deletes the same value
  the same way.  A ``nan`` cannot be ordered, so the window counts its
  ``nan`` latencies beside the list instead; any of them ranks every
  percentile to ``nan``.

The rows sit in a list that is only appended to: the live rows are
those from a head index on, eviction advances the head, and compaction
starts a new list, so the slice a snapshot holds never changes.

:meth:`TelemetryHub.snapshot` evicts, copies the tallies (O(tiers)),
takes its slice of the row list (O(1)) and reads p50 / p95 / p99 off the
ranked list — two order statistics each
(:func:`repro.stats.descriptive.ranked_percentile`, the interpolation
:func:`~repro.stats.descriptive.percentiles` uses too): no sort, no
mask, no sum, so a tick's p95 is O(1).  Everything else (per-tier
windows, per-version node-seconds, the cost mean) is computed on first
read from the snapshot's slice, so a late read sees exactly the window
of the snapshot's instant.  Float aggregates reach SLO pressures and
control-log text, so they are summed strictly left to right with
``+=``: running float subtraction, ``ndarray.sum`` (pairwise) and
builtin ``sum`` (compensated from Python 3.12) all round differently
from the per-record walk this replaced, which
``tests/oracle/telemetry_reference.py`` keeps as the oracle.  A tier's
p95 ranks its own latencies on first read; only a tier SLO reads one.

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
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro import checks
from repro.contract import MIN_PERCENTILE_SAMPLES
from repro.stats.descriptive import percentiles, ranked_percentile

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


#: Row outcome codes; a tally is indexed by them.
_ANSWERED, _DEGRADED, _FAILED, _SHED = range(4)
#: What publish reads per row, beside time and ``node_seconds``.
_ROW_FIELDS = operator.attrgetter(
    "tier", "shed", "failed", "degraded", "response_time_s", "invocation_cost"
)
#: One live row: time, tier, outcome code, latency, cost and the billed
#: ``node_seconds`` items (in the record's own key order; none unless
#: the row was answered).
_Row = Tuple[float, float, int, float, float, Tuple[Tuple[str, float], ...]]


def _ordered_mean(values: List[float]) -> float:
    """Mean whose sum is taken strictly left to right, rounding as a
    ``+=`` loop does (``nan`` over no values)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else float("nan")


class WindowSnapshot:
    """Aggregate view of the trailing telemetry window at one instant.

    Built by :meth:`TelemetryHub.snapshot`.  The counts and the
    whole-stream percentiles are taken with the snapshot; every other
    field is computed on first read (and kept), from the window as it
    stood at :attr:`now` — a late read sees no row published after it.

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
        counts: Tuple[List[int], Dict[float, Tuple[int, ...]]],
        rows: Tuple[List[_Row], int, int],
        latency: Tuple[int, Tuple[float, float, float]],
    ) -> None:
        self.now = now
        self.window_s = window_s
        self.span_s = span_s
        totals, tallies = counts
        self.n = sum(totals)
        self.n_failed = totals[_FAILED]
        self.n_shed = totals[_SHED]
        self.n_degraded = totals[_DEGRADED]
        n_answered = totals[_ANSWERED] + totals[_DEGRADED]
        self.goodput_rps = n_answered / span_s
        self.availability = (n_answered / self.n) if self.n else float("nan")
        #: Own copy of the live tallies;
        self._counts = tallies
        #: ``(rows, start, stop)``: the live slice of the hub's row list,
        #: which only ever grows past ``stop``;
        self._rows, self._start, self._stop = rows
        #: the answered latencies' count and p50 / p95 / p99.
        self._latency = latency

    @property
    def n_answered(self) -> int:
        """Windowed requests that resolved with a response."""
        return self.n - self.n_failed - self.n_shed

    def _estimate(self, q: float, value: float) -> PercentileEstimate:
        n = self._latency[0]
        return PercentileEstimate(
            q, value, n, low_confidence=n < max(MIN_PERCENTILE_SAMPLES, 1)
        )

    @cached_property
    def p50_latency(self) -> PercentileEstimate:
        return self._estimate(50.0, self._latency[1][0])

    @cached_property
    def p95_latency(self) -> PercentileEstimate:
        return self._estimate(95.0, self._latency[1][1])

    @cached_property
    def p99_latency(self) -> PercentileEstimate:
        return self._estimate(99.0, self._latency[1][2])

    @cached_property
    def _window(self) -> List[_Row]:
        return self._rows[self._start : self._stop]

    @cached_property
    def mean_cost(self) -> float:
        return _ordered_mean(
            [row[4] for row in self._window if row[2] <= _DEGRADED]
        )

    @cached_property
    def node_seconds(self) -> Dict[str, float]:
        # Versions appear in the order a walk over the rows first meets
        # them.
        node_seconds: Dict[str, float] = {}
        for row in self._window:
            for version, seconds in row[5]:
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
        # Tiers appear in the order a walk over the rows first meets them;
        # each gathers its answered latencies and costs in that order.
        answered: Dict[float, Tuple[List[float], List[float]]] = {}
        for _, tier, code, latency, cost, _ in self._window:
            served = answered.get(tier)
            if served is None:
                served = answered[tier] = ([], [])
            if code <= _DEGRADED:
                served[0].append(latency)
                served[1].append(cost)
        tiers: Dict[float, TierWindow] = {}
        for tier, (latencies, costs) in answered.items():
            tally = self._counts[tier]
            tiers[tier] = TierWindow(
                tier=tier,
                n=sum(tally),
                n_failed=tally[_FAILED],
                n_shed=tally[_SHED],
                n_degraded=tally[_DEGRADED],
                p95_latency=guarded_percentile(latencies, 95.0),
                mean_cost=_ordered_mean(costs),
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
        #: The rows, oldest first, in a list that is only appended to: the
        #: live rows are those from ``_head`` on, and compaction starts a
        #: new list, so a snapshot's slice of the old one stays as it was.
        self._rows: List[_Row] = []
        self._head = 0
        #: Live rows per outcome ``[answered, degraded, failed, shed]``,
        self._totals = [0, 0, 0, 0]
        #: and per tier; a tier leaves with its last row.
        self._counts: Dict[float, List[int]] = {}
        #: The live answered latencies, sorted ascending — but for the
        #: ``nan`` ones, which are only counted.
        self._ranked: List[float] = []
        self._n_nan = 0
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

    def publish_columns(self, columns, rows: slice, times) -> None:
        """Fold a slice of report columns into the window: the many-row
        :meth:`publish`, with no record built.

        Args:
            columns: A :class:`~repro.service.simulation.report.RecordColumns`
                (it names its arrays as a record names its fields).
            rows: The rows to publish, in completion order.
            times: Their publish times (a non-decreasing ``ndarray``).
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
        """The one append: rows, counts and ranks (an out-of-order row
        rejects the whole call before any of them)."""
        new: List[_Row] = []
        last = self._last_time
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
            new.append(
                (
                    t, float(tier), code, float(latency), float(cost),
                    tuple(billed.items()) if code <= _DEGRADED else (),
                )
            )
        self._last_time = last
        head = self._head
        if head > len(self._rows) // 2:
            self._rows = self._rows[head:]
            self._head = 0
        self._rows.extend(new)
        totals, counts, ranked = self._totals, self._counts, self._ranked
        for _, tier, code, latency, _, _ in new:
            totals[code] += 1
            tally = counts.get(tier)
            if tally is None:
                tally = counts[tier] = [0, 0, 0, 0]
            tally[code] += 1
            if code <= _DEGRADED:
                if latency == latency:
                    insort(ranked, latency)
                else:
                    self._n_nan += 1
        self._published += len(new)
        if self._max_records is not None:
            # The memory valve drops the oldest rows.
            self._drop(len(self) - self._max_records)

    @property
    def total_published(self) -> int:
        """Records published over the hub's lifetime (not just the window)."""
        return self._published

    def __len__(self) -> int:
        return len(self._rows) - self._head

    # ------------------------------------------------------------------
    # windowed aggregation
    # ------------------------------------------------------------------
    def _drop(self, k: int) -> None:
        """Evict the ``k`` oldest rows and take them out of the counts
        and ranks."""
        if k <= 0:
            return
        totals, counts, ranked = self._totals, self._counts, self._ranked
        head = self._head
        for _, tier, code, latency, _, _ in self._rows[head : head + k]:
            totals[code] -= 1
            tally = counts[tier]
            tally[code] -= 1
            if not any(tally):
                del counts[tier]
            if code <= _DEGRADED:
                if latency == latency:
                    del ranked[bisect_left(ranked, latency)]
                else:
                    self._n_nan -= 1
        self._head = head + k

    def snapshot(self, now: float) -> WindowSnapshot:
        """Aggregate the trailing window as of ``now``.

        Evicts, counts and ranks now; the rest of the snapshot is
        computed when first read (see :class:`WindowSnapshot`).
        Eviction is destructive (rows older than one window are gone),
        so snapshots must be taken with non-decreasing ``now`` — which
        both producers guarantee.
        """
        rows, horizon, head = self._rows, now - self.window_s, self._head
        stop = len(rows)
        k = head
        while k < stop and rows[k][0] < horizon:
            k += 1  # head rows only: stop at the first one still inside
        self._drop(k - head)
        ranked = self._ranked
        n_latency = len(ranked) + self._n_nan
        if self._n_nan:
            values = (float("nan"),) * 3
        else:
            values = (
                ranked_percentile(ranked, 50.0),
                ranked_percentile(ranked, 95.0),
                ranked_percentile(ranked, 99.0),
            )
        span = self.window_s if now >= self.window_s else max(now, 1e-9)
        return WindowSnapshot(
            now,
            self.window_s,
            span,
            (
                self._totals,
                {tier: tuple(tally) for tier, tally in self._counts.items()},
            ),
            (rows, k, stop),
            (n_latency, values),
        )
