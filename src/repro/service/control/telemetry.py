"""Streaming, windowed serving telemetry.

Everything the control plane decides — SLO states, admission pressure,
when the policy adaptor may re-fit — is decided from a *trailing window*
of per-request records, not from whole-run aggregates: a breach that
started five virtual seconds ago must dominate a healthy first hour.
:class:`TelemetryHub` is that window, and it is incremental: a control
tick costs what it decides, not a walk over every windowed record.

Producers publish through a plain event-hook interface —
:meth:`TelemetryHub.publish` is just a ``callable(record, now)``, so the
engine (through the duck-typed plane's ``observe``) and the synchronous
gateway backends feed it without importing this package; :meth:`TelemetryHub.publish_columns` is
the many-row form over a columnar report's arrays.  Either way every
field is read **once, at publish**, into parallel columns (time, tier,
outcome code, latency and cost in a dense :class:`_FloatWindow`; payload
and billed ``node_seconds`` items beside it) and the record is not kept.

:meth:`TelemetryHub.snapshot` then *counts* or *recomputes*.  Counts are
exact integers: a per-tier tally that publish adds to and both eviction
sites (window horizon, ``max_records`` valve) subtract from — O(tiers).
Float aggregates (cost means, per-version node-seconds, percentiles)
reach SLO pressures and control-log text, so they are recomputed per
snapshot from the live columns, summed strictly left to right: running
float subtraction, ``ndarray.sum`` (pairwise) and builtin ``sum``
(compensated from Python 3.12) all round differently from the per-record
``+=`` walk this replaced, which ``tests/oracle/telemetry_reference.py``
keeps as the oracle.  Percentiles sort each live latency slice once
(:func:`repro.stats.descriptive.percentiles`).

Windowed percentiles carry a small-N guard: a p95 ranked over a handful
of samples is an artefact of quantile math, not a tail (with 4 samples
there is always exactly one "p95 outlier" by definition — the same
failure mode as rank-based tier classification over tiny component
counts).  :func:`guarded_percentile` therefore returns a
:class:`PercentileEstimate` whose ``low_confidence`` flag is set below
:data:`MIN_PERCENTILE_SAMPLES` samples; consumers (the SLO monitors) must
not treat a flagged value as breach evidence.
"""

from __future__ import annotations

import math
import operator
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.descriptive import percentiles

__all__ = [
    "MIN_PERCENTILE_SAMPLES",
    "MetricsExporter",
    "PercentileEstimate",
    "TelemetryHub",
    "TierWindow",
    "WindowSnapshot",
    "guarded_percentile",
    "snapshot_metrics",
]

#: Below this many samples a windowed percentile is flagged low-confidence.
MIN_PERCENTILE_SAMPLES = 20


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


def _estimates(
    values: np.ndarray, qs: Sequence[float], min_samples: int
) -> List[PercentileEstimate]:
    """Guarded estimates of several percentiles of one sample, sorted once."""
    n = len(values)
    low_confidence = n < max(min_samples, 1)
    return [
        PercentileEstimate(q, value, n, low_confidence)
        for q, value in zip(qs, percentiles(values, qs))
    ]


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
    return _estimates(np.asarray(values, dtype=float), (q,), min_samples)[0]


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


@dataclass(frozen=True)
class WindowSnapshot:
    """Aggregate view of the trailing telemetry window at one instant.

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
        payloads: Payloads of windowed records in publish order (the
            adaptor re-fits the rule generator on these rows).
    """

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
    payloads: Tuple[object, ...]

    @property
    def n_answered(self) -> int:
        """Windowed requests that resolved with a response."""
        return self.n - self.n_failed - self.n_shed

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
#: What publish reads per row, beside time, payload and ``node_seconds``.
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
        min_percentile_samples: Small-N guard threshold for windowed
            percentiles.
        max_records: Hard bound on buffered rows; the oldest are dropped
            first.  Sized so any sane window fits; this is a memory
            valve, not a semantic knob.
    """

    def __init__(
        self,
        window_s: float = 10.0,
        *,
        min_percentile_samples: int = MIN_PERCENTILE_SAMPLES,
        max_records: int = 100_000,
    ) -> None:
        if window_s <= 0.0:
            raise ValueError("window_s must be positive")
        if min_percentile_samples < 1:
            raise ValueError("min_percentile_samples must be at least 1")
        self.window_s = float(window_s)
        self.min_percentile_samples = int(min_percentile_samples)
        self._max_records = max_records
        #: Per live row: publish time, tier, outcome code, latency, cost —
        self._rows = _FloatWindow(5)
        #: — its payload, and its billed ``node_seconds`` items (in the
        #: record's own key order; none unless the row was answered).
        self._payloads: Deque[object] = deque()
        self._billed: Deque[Tuple[Tuple[str, float], ...]] = deque()
        #: tier -> live rows ``[answered, degraded, failed, shed]``; a
        #: tier leaves with its last row.
        self._counts: Dict[float, List[int]] = {}
        self._hooks: List[Callable[[object, float], None]] = []
        self._published = 0
        self._last_time = 0.0

    # ------------------------------------------------------------------
    # event-hook surface
    # ------------------------------------------------------------------
    def subscribe(self, hook: Callable[[object, float], None]) -> None:
        """Register a callback invoked per published ``(record, now)``."""
        self._hooks.append(hook)

    def publish(self, record, now: Optional[float] = None) -> None:
        """Fold one request record into the window.

        This is the hub's producer hook: the engine (via the plane's
        ``observe``) and the gateway's synchronous completion path both
        call exactly this signature.  Publish times must be non-decreasing (both
        producers emit in clock order).

        Args:
            record: A :class:`~repro.service.simulation.report.RequestRecord`
                (or anything with its fields).
            now: Publish time; defaults to the record's ``finished_s``.
        """
        t = float(record.finished_s if now is None else now)
        self._append([(t, *_ROW_FIELDS(record), record.payload, record.node_seconds)])
        for hook in self._hooks:
            hook(record, t)

    def publish_columns(self, columns, rows: slice, times: np.ndarray) -> None:
        """Fold a slice of report columns into the window: the many-row
        :meth:`publish`, with no record built unless a hook subscribed.

        Args:
            columns: A :class:`~repro.service.simulation.report.RecordColumns`
                (it names its arrays as a record names its fields).
            rows: The rows to publish, in completion order.
            times: Their publish times (non-decreasing).
        """
        indices = range(*rows.indices(len(columns)))
        self.publish_rows(
            list(
                zip(
                    times.tolist(),
                    *(column[rows].tolist() for column in _ROW_FIELDS(columns)),
                    columns.payloads[rows],
                    columns.row_node_seconds(rows),
                )
            ),
            lambda k: columns.record(indices[k]),
        )

    def publish_rows(self, rows: List[tuple], record: Callable[[int], object]) -> None:
        """Fold rows a producer holds no records for: the many-row
        :meth:`publish` behind :meth:`publish_columns` and the columnar
        event loop's control ticks.

        Args:
            rows: ``(now, tier, shed, failed, degraded, response_time_s,
                invocation_cost, payload, node_seconds)`` per row, in
                completion order (``now`` non-decreasing).
            record: ``record(k)`` materializes row ``k`` as a record;
                called only when a hook subscribed.
        """
        self._append(rows)
        for hook in self._hooks:
            for k, row in enumerate(rows):
                hook(record(k), row[0])

    def _append(self, rows) -> None:
        """The one append: the rows' columns and the tallies (an
        out-of-order row rejects the whole call before any of them)."""
        fields, payloads, legs, last = [], [], [], self._last_time
        for t, tier, shed, failed, degraded, latency, cost, payload, billed in rows:
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
            payloads.append(payload)
            legs.append(tuple(billed.items()) if code <= _DEGRADED else ())
        self._last_time = last
        for _, tier, code, _, _ in fields:
            self._counts.setdefault(tier, [0, 0, 0, 0])[code] += 1
        self._rows.append(list(zip(*fields)))
        self._payloads.extend(payloads)
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
            self._payloads.popleft()
            self._billed.popleft()
        self._rows.pop_oldest(k)

    def snapshot(self, now: float) -> WindowSnapshot:
        """Aggregate the trailing window as of ``now``.

        Eviction is destructive (rows older than one window are gone),
        so snapshots must be taken with non-decreasing ``now`` — which
        both producers guarantee.
        """
        times, horizon, k = self._rows.view()[0], now - self.window_s, 0
        while k < len(times) and times[k] < horizon:
            k += 1  # head rows only: stop at the first one still inside
        self._drop(k)
        _, tier_of, code, latency, cost = self._rows.view()
        span = self.window_s if now >= self.window_s else max(now, 1e-9)
        counts, min_samples = self._counts, self.min_percentile_samples
        totals = [sum(column) for column in zip(*counts.values())] or [0, 0, 0, 0]
        n, n_answered = sum(totals), totals[_ANSWERED] + totals[_DEGRADED]
        answered = code <= _DEGRADED
        tier_ok, latency_ok = tier_of[answered], latency[answered]
        cost_ok = cost[answered]

        # Keys appear in the order a walk over the live rows would first
        # meet them: tiers by their first live row, versions by first leg.
        tiers: Dict[float, TierWindow] = {}
        for tier in sorted(counts, key=lambda tier: (tier_of == tier).argmax()):
            tally, served = counts[tier], tier_ok == tier
            tiers[tier] = TierWindow(
                tier=tier,
                n=sum(tally),
                n_failed=tally[_FAILED],
                n_shed=tally[_SHED],
                n_degraded=tally[_DEGRADED],
                p95_latency=_estimates(latency_ok[served], (95.0,), min_samples)[0],
                mean_cost=_ordered_mean(cost_ok[served]),
            )
        node_seconds: Dict[str, float] = {}
        for version, seconds in chain.from_iterable(self._billed):
            node_seconds[version] = node_seconds.get(version, 0.0) + seconds
        burn = 0.0
        for seconds in node_seconds.values():
            burn += seconds
        p50, p95, p99 = _estimates(latency_ok, (50.0, 95.0, 99.0), min_samples)

        return WindowSnapshot(
            now=now,
            window_s=self.window_s,
            span_s=span,
            n=n,
            n_failed=totals[_FAILED],
            n_shed=totals[_SHED],
            n_degraded=totals[_DEGRADED],
            p50_latency=p50,
            p95_latency=p95,
            p99_latency=p99,
            goodput_rps=n_answered / span,
            availability=(n_answered / n) if n else float("nan"),
            node_seconds=node_seconds,
            node_seconds_per_s=burn / span,
            mean_cost=_ordered_mean(cost_ok),
            tiers=tiers,
            payloads=tuple(compress(self._payloads, answered.tolist())),
        )


# ----------------------------------------------------------------------
# scrape-able metrics export
# ----------------------------------------------------------------------
def _tier_label(tier: float) -> str:
    """A stable, dot-free label for a tolerance tier (0.05 -> ``0_05``)."""
    return format(tier, "g").replace("-", "m").replace(".", "_")


def snapshot_metrics(snapshot: WindowSnapshot, *, prefix: str = "gateway") -> Dict[str, float]:
    """Flatten a :class:`WindowSnapshot` into history-schema metric rows.

    The labels use the same dotted ``section.metric[.key]`` convention as
    the flattened ``BENCH_PERF.json`` sections in
    ``results/bench_history.jsonl``, so a live serving session exports
    rows the longitudinal tooling (``benchmarks/history.py``,
    ``compare_perf.py --against-history``) ingests unchanged.

    ``nan`` aggregates (an empty window's availability, an unanswered
    tier's mean cost) are omitted rather than exported: a scrape target
    reports what it measured, not placeholders.  Percentiles carry their
    sample counts (``.n``) so a consumer can apply the same small-N
    judgement the SLO monitors do.

    Args:
        snapshot: The window aggregate to flatten.
        prefix: Leading label segment (the history "section").
    """
    metrics: Dict[str, float] = {
        f"{prefix}.window_s": snapshot.window_s,
        f"{prefix}.span_s": snapshot.span_s,
        f"{prefix}.n": float(snapshot.n),
        f"{prefix}.n_failed": float(snapshot.n_failed),
        f"{prefix}.n_shed": float(snapshot.n_shed),
        f"{prefix}.n_degraded": float(snapshot.n_degraded),
        f"{prefix}.n_answered": float(snapshot.n_answered),
        f"{prefix}.goodput_rps": snapshot.goodput_rps,
        f"{prefix}.node_seconds_per_s": snapshot.node_seconds_per_s,
    }
    for name, estimate in (
        ("p50_latency_s", snapshot.p50_latency),
        ("p95_latency_s", snapshot.p95_latency),
        ("p99_latency_s", snapshot.p99_latency),
    ):
        if not np.isnan(estimate.value):
            metrics[f"{prefix}.{name}"] = float(estimate.value)
        metrics[f"{prefix}.{name}.n"] = float(estimate.n)
    if not np.isnan(snapshot.availability):
        metrics[f"{prefix}.availability"] = float(snapshot.availability)
    if not np.isnan(snapshot.mean_cost):
        metrics[f"{prefix}.mean_cost"] = float(snapshot.mean_cost)
    for version, seconds in sorted(snapshot.node_seconds.items()):
        metrics[f"{prefix}.node_seconds.{version}"] = float(seconds)
    for tier, window in sorted(snapshot.tiers.items()):
        base = f"{prefix}.tier.{_tier_label(tier)}"
        metrics[f"{base}.n"] = float(window.n)
        metrics[f"{base}.n_failed"] = float(window.n_failed)
        metrics[f"{base}.n_shed"] = float(window.n_shed)
        metrics[f"{base}.n_degraded"] = float(window.n_degraded)
        if not np.isnan(window.p95_latency.value):
            metrics[f"{base}.p95_latency_s"] = float(window.p95_latency.value)
        metrics[f"{base}.p95_latency_s.n"] = float(window.p95_latency.n)
        if not np.isnan(window.mean_cost):
            metrics[f"{base}.mean_cost"] = float(window.mean_cost)
    return metrics


#: Characters outside the Prometheus metric-name charset
#: ``[a-zA-Z0-9_:]`` (each becomes an underscore).
_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(label: str) -> str:
    """Sanitise a dotted history label to a valid exposition name."""
    name = _METRIC_NAME_BAD.sub("_", label)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _sample_value(value: float) -> str:
    """Exposition-format sample value (``+Inf``/``-Inf``, not ``inf``)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, "g")


class MetricsExporter:
    """Scrape-able view over a :class:`TelemetryHub`.

    The control plane's windowed telemetry already holds everything a
    metrics endpoint needs; this class is the thin serialization layer
    on top: :meth:`scrape` returns the flat history-schema dict,
    :meth:`render` a Prometheus-style text exposition, and
    :meth:`history_record` the body of a longitudinal history entry —
    the same shape ``benchmarks/history.py`` appends for benchmark
    runs, so live gateway sessions and benches feed one trajectory.

    The exporter is a passive consumer: it never subscribes hooks and
    never mutates the hub beyond the (destructive, monotone-``now``)
    window eviction every ``snapshot`` performs anyway.

    Args:
        hub: The telemetry hub to export from.
        prefix: History "section" the exported labels live under.
    """

    def __init__(self, hub: TelemetryHub, *, prefix: str = "gateway") -> None:
        self.hub = hub
        self.prefix = prefix
        self._scrapes = 0
        self._sources: List[Callable[[], Dict[str, float]]] = []

    @property
    def total_scrapes(self) -> int:
        """Scrapes served over the exporter's lifetime."""
        return self._scrapes

    def add_source(self, source: Callable[[], Dict[str, float]]) -> None:
        """Register an extra metrics source merged into every scrape.

        A source is any zero-argument callable returning a flat
        ``{label: value}`` dict — e.g.
        :meth:`repro.obs.trace.TraceCollector.metrics` (span counters)
        or :meth:`repro.service.control.plane.ControlPlane.metrics`
        (gray-detection and admission counters).  Later sources win on
        label collisions.
        """
        self._sources.append(source)

    def scrape(self, now: float) -> Dict[str, float]:
        """Snapshot the hub and return flat history-schema metrics.

        Args:
            now: Scrape time on the producer's clock (must be
                non-decreasing across scrapes, like ``snapshot``).
        """
        self._scrapes += 1
        metrics = snapshot_metrics(self.hub.snapshot(now), prefix=self.prefix)
        for source in self._sources:
            for label, value in source().items():
                metrics[label] = float(value)
        return metrics

    def render(self, now: float) -> str:
        """The scrape as a Prometheus-style text exposition.

        Labels are sanitised to the metric-name charset
        (``[a-zA-Z_:][a-zA-Z0-9_:]*`` — every other character becomes
        an underscore, a leading digit gains one); one
        ``# TYPE ... gauge`` header per metric name keeps the output
        self-describing.  Exposition edge cases follow the format spec:
        ``NaN`` samples are omitted (a gauge with no measurement is not
        a sample), infinities render as ``+Inf`` / ``-Inf`` (Python's
        ``inf`` spelling is not valid exposition), and two labels that
        sanitise to the same name keep one header.
        """
        lines = []
        seen_headers = set()
        for label, value in sorted(self.scrape(now).items()):
            if math.isnan(value):
                continue
            name = _metric_name(label)
            if name not in seen_headers:
                seen_headers.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_sample_value(value)}")
        return "\n".join(lines) + "\n"

    def history_record(self, now: float, *, smoke: bool = False) -> Dict[str, object]:
        """The scrape shaped as a longitudinal-history entry body.

        Returns a dict with ``source``/``smoke``/``metrics`` keys;
        ``benchmarks/history.py``'s ``entry_from_metrics`` stamps the
        commit/machine/engine metadata and appends it, so a serving
        session lands in ``results/bench_history.jsonl`` with exactly
        the schema benchmark runs use.

        Args:
            now: Scrape time on the producer's clock.
            smoke: Tag for reduced-fidelity sessions (mirrors the
                benches' smoke tag so trend checks stay like-for-like).
        """
        return {
            "source": self.prefix,
            "smoke": bool(smoke),
            "metrics": self.scrape(now),
        }
