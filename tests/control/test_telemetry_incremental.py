"""The incremental telemetry window against the walk it replaced.

``TelemetryHub`` reads every record field once, at ``publish``, into
one tuple per row, keeps counts and a ranked latency list beside the
rows, and answers ``snapshot`` from a copy of the counts, a slice of the
rows and reads of the ranks.  ``tests/oracle/telemetry_reference.py``
keeps the older ring-of-records hub, whose ``snapshot`` re-walks every
windowed record.  These tests drive both through the same interleavings of ``publish`` and
``snapshot`` — once publishing records, once publishing column slices
(cut at each snapshot, or every few rows as well) — and require every
``WindowSnapshot`` / ``TierWindow`` field equal, key orders included.
Rows carry ``nan`` and tied latencies.  Seeded mutants show the
comparison has teeth, and an attribute-counting proxy pins *when* the
fields are read.
"""

import inspect
import math
from bisect import insort
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.telemetry_reference import ReferenceTelemetryHub
from repro.service.control import TelemetryHub, telemetry
from repro.service.simulation.report import RecordColumns

from test_telemetry import record

WINDOW_S = 2.0
#: (fast, accurate) pairs a row can be served by: one leg, two legs, and
#: the two legs in the other key order.
PAIRS = (("fast", None), ("fast", "slow"), ("slow", "fast"))
ANSWERED, DEGRADED, FAILED, SHED, FAILED_AND_SHED = range(5)


def _columns(rows):
    """Row specs -> RecordColumns (whose ``record(i)`` is the same row)."""
    n = len(rows)

    def column(key, dtype=float):
        return np.array([r[key] for r in rows], dtype=dtype)

    outcome = column("outcome", int)
    return RecordColumns(
        request_ids=[f"r{i}" for i in range(n)],
        payloads=[r["payload"] for r in rows],
        tier=column("tier"),
        arrival_s=np.zeros(n),
        finished_s=np.zeros(n),
        response_time_s=column("latency"),
        queue_wait_s=np.zeros(n),
        escalated=np.zeros(n, dtype=bool),
        invocation_cost=column("cost"),
        pairs=PAIRS,
        pair_code=column("pair", np.intp),
        node_seconds_fast=column("fast_s"),
        node_seconds_accurate=column("accurate_s"),
        confidence=np.ones(n),
        failed=(outcome == FAILED) | (outcome == FAILED_AND_SHED),
        shed=outcome >= SHED,
        degraded=outcome == DEGRADED,
    )


def _same(left, right):
    return left == right or (
        isinstance(left, float) and math.isnan(left) and math.isnan(right)
    )


def _assert_same_estimate(got, want, where):
    for name in ("q", "value", "n", "low_confidence"):
        assert _same(getattr(got, name), getattr(want, name)), (where, name)


def assert_same_snapshot(got, want):
    """Every field equal (nan-aware), dict key orders included."""
    for name in (
        "now", "window_s", "span_s", "n", "n_failed", "n_shed", "n_degraded",
        "goodput_rps", "availability", "node_seconds_per_s", "mean_cost",
    ):
        assert _same(getattr(got, name), getattr(want, name)), name
    for name in ("p50_latency", "p95_latency", "p99_latency"):
        _assert_same_estimate(getattr(got, name), getattr(want, name), name)
    assert list(got.node_seconds.items()) == list(want.node_seconds.items())
    assert list(got.tiers) == list(want.tiers)
    for tier, window in want.tiers.items():
        mine = got.tiers[tier]
        for name in ("tier", "n", "n_failed", "n_shed", "n_degraded", "mean_cost"):
            assert _same(getattr(mine, name), getattr(window, name)), (tier, name)
        _assert_same_estimate(mine.p95_latency, window.p95_latency, tier)


def check_interleaving(
    rows, ops, *, max_records, hub_cls=TelemetryHub, chunk=None, defer=0
):
    """Replay ``ops`` through the reference and two production hubs.

    ``ops`` is a sequence of ``(kind, dt)``: ``"publish"`` takes the next
    row at ``last + dt`` (a negative ``dt`` is a back-step inside the
    hub's 1e-12 tolerance), ``"snapshot"`` is taken at the running clock
    plus ``dt``.  One production hub gets records, the other gets each
    run of consecutive publishes as one column slice — cut every
    ``chunk`` rows when given, as the columnar loop's control ticks cut
    its finalized rows.  A production snapshot's fields are first read
    ``defer`` ops after it was taken (later publishes and snapshots in
    between), and must still equal the reference taken at its instant.
    """
    columns = _columns(rows)
    reference = ReferenceTelemetryHub(WINDOW_S, max_records=max_records)
    by_record = hub_cls(WINDOW_S, max_records=max_records)
    by_slice = hub_cls(WINDOW_S, max_records=max_records)
    clock, cursor, pending, unread = 0.0, 0, [], deque()

    def flush():
        if pending:
            rows_ = slice(cursor - len(pending), cursor)
            by_slice.publish_columns(columns, rows_, np.array(pending))
            pending.clear()

    def read(due):
        while unread and unread[0][0] <= due:
            _, mine, sliced, want = unread.popleft()
            assert_same_snapshot(mine, want)
            assert_same_snapshot(sliced, want)

    for index, (kind, dt) in enumerate(ops):
        if kind == "publish" and cursor < len(rows):
            t = clock + dt
            clock = max(clock, t)
            row = columns.record(cursor)
            reference.publish(row, now=t)
            by_record.publish(row, now=t)
            pending.append(t)
            cursor += 1
            if len(pending) == chunk:
                flush()
        elif kind == "snapshot":
            flush()
            clock += dt
            want = reference.snapshot(clock)
            unread.append(
                (index + defer, by_record.snapshot(clock), by_slice.snapshot(clock), want)
            )
            assert len(by_record) == len(by_slice) == len(reference)
        read(index)
    flush()
    read(math.inf)
    assert by_record.total_published == by_slice.total_published == cursor


row_specs = st.fixed_dictionaries(
    dict(
        tier=st.sampled_from([0.0, 0.05, 0.1]),
        outcome=st.sampled_from(
            [ANSWERED] * 4 + [DEGRADED, FAILED, SHED, FAILED_AND_SHED]
        ),
        # ties: a few repeated values
        latency=st.one_of(st.floats(0.001, 5.0), st.sampled_from([0.5, 1.0])),
        cost=st.floats(1e-7, 1e-3),
        pair=st.sampled_from([0, 0, 1, 2]),
        fast_s=st.floats(0.0, 2.0),
        # -1.0 is RecordColumns' "accurate leg billed nothing" sentinel
        accurate_s=st.one_of(st.just(-1.0), st.floats(0.0, 2.0)),
        payload=st.one_of(st.integers(0, 9), st.tuples(st.integers(), st.text(max_size=2))),
    )
)
#: tied times, ordinary steps, a tolerated back-step, a window-emptying gap
steps = st.sampled_from([0.0, 0.0, 0.05, 0.3, -5e-13, WINDOW_S + 0.5])
op_lists = st.lists(
    st.tuples(
        st.sampled_from(["publish"] * 3 + ["snapshot"]),
        steps,
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_specs, min_size=1, max_size=40),
    ops=op_lists,
    max_records=st.sampled_from([4, 7, 100_000]),
)
def test_every_snapshot_equals_the_reference_walk(rows, ops, max_records):
    ops = [(kind, max(dt, 0.0) if kind == "snapshot" else dt) for kind, dt in ops]
    check_interleaving(rows, ops + [("snapshot", 0.0)], max_records=max_records)


MIXED = [ANSWERED] * 6 + [DEGRADED, FAILED, SHED, FAILED_AND_SHED]
#: Latencies many rows share, so the ranked list holds runs of ties.
TIED = [0.25, 0.5, 1.0]


def _seeded_interleaving(seed, n_rows=400, tiers=(0.0, 0.05, 0.1), outcomes=MIXED):
    """A long deterministic interleaving with well-filled windows."""
    rng = np.random.default_rng(seed)
    rows = [
        dict(
            tier=float(rng.choice(tiers)),
            outcome=int(rng.choice(outcomes)),
            latency=float(
                rng.choice(
                    [rng.uniform(0.01, 3.0), rng.choice(TIED), math.nan],
                    p=[0.82, 0.17, 0.01],
                )
            ),
            cost=float(rng.uniform(1e-6, 1e-3)),
            pair=int(rng.integers(0, 3)),
            fast_s=float(rng.uniform(0.0, 2.0)),
            accurate_s=float(rng.choice([-1.0, rng.uniform(0.0, 2.0)])),
            payload=(int(rng.integers(0, 50)), "p"),
        )
        for _ in range(n_rows)
    ]
    ops = []
    for _ in range(n_rows):
        ops.append(("publish", float(rng.choice([0.0, 0.02, 0.05, -5e-13]))))
        if rng.random() < 0.3:
            ops.append(("snapshot", float(rng.choice([0.0, 0.1, WINDOW_S + 1.0], p=[0.5, 0.45, 0.05]))))
    return rows, ops + [("snapshot", 0.0)]


@pytest.mark.parametrize("max_records", [4, 100_000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_interleavings_equal_the_reference_walk(seed, max_records):
    rows, ops = _seeded_interleaving(seed)
    check_interleaving(rows, ops, max_records=max_records)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("max_records", [4, 100_000])
def test_per_tick_batches_equal_the_reference_walk(max_records, chunk):
    """Slices cut every ``chunk`` rows between snapshots, as well as at
    them: batch boundaries change no window."""
    rows, ops = _seeded_interleaving(1)
    check_interleaving(rows, ops, max_records=max_records, chunk=chunk)


@pytest.mark.parametrize("outcomes", [MIXED, [ANSWERED, ANSWERED, DEGRADED]])
@pytest.mark.parametrize("tiers", [(0.05,), (0.0, 0.05, 0.1)])
def test_one_tier_and_all_answered_windows_equal_the_reference_walk(tiers, outcomes):
    """A tier slice that is the whole stream, an answered mask that is
    all true: the degenerate selections change no field."""
    rows, ops = _seeded_interleaving(4, n_rows=200, tiers=tiers, outcomes=outcomes)
    check_interleaving(rows, ops, max_records=100_000)


class _EagerCompactionHub(TelemetryHub):
    """The row list starts a new list whenever it has a dead head, so a
    late read almost always holds a list the hub has left."""

    def _append(self, *args):
        super()._append(*args)
        if self._head:
            self._rows, self._head = self._rows[self._head :], 0


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_specs, min_size=1, max_size=40),
    ops=op_lists,
    max_records=st.sampled_from([4, 7, 100_000]),
    defer=st.integers(1, 12),
)
def test_a_snapshot_read_late_equals_the_reference_at_its_instant(
    rows, ops, max_records, defer
):
    ops = [(kind, max(dt, 0.0) if kind == "snapshot" else dt) for kind, dt in ops]
    check_interleaving(
        rows, ops + [("snapshot", 0.0)], max_records=max_records,
        hub_cls=_EagerCompactionHub, defer=defer,
    )


@pytest.mark.parametrize("defer", [1, 5, 40])
@pytest.mark.parametrize("max_records", [4, 100_000])
def test_seeded_late_reads_equal_the_reference(max_records, defer):
    rows, ops = _seeded_interleaving(2)
    check_interleaving(
        rows, ops, max_records=max_records, hub_cls=_EagerCompactionHub, defer=defer
    )


class _SnapshotKeepsAView(TelemetryHub):
    """Mutant: the snapshot's slice of the row list ends wherever the
    live list ends when it is read."""

    def snapshot(self, now):
        snap = super().snapshot(now)
        snap._stop = None
        return snap


class _CompactsListsInPlace(TelemetryHub):
    """Mutant: the row list drops its dead head in place, under the
    slices earlier snapshots hold."""

    def _append(self, *args):
        super()._append(*args)
        if self._head:
            del self._rows[: self._head]
            self._head = 0


class _SnapshotKeepsLiveTallies(TelemetryHub):
    """Mutant: the snapshot's tiers count from the live tallies."""

    def snapshot(self, now):
        snap = super().snapshot(now)
        snap._counts = self._counts
        return snap


class _ValveForgetsTallies(TelemetryHub):
    """Mutant: the ``max_records`` valve drops rows but not their counts
    (nor their ranks)."""

    def _append(self, *args):
        bound, self._max_records = self._max_records, None
        try:
            super()._append(*args)
        finally:
            self._max_records = bound
        self._head += max(len(self) - bound, 0)


class _EvictionKeepsItsRank(TelemetryHub):
    """Mutant: an evicted row's latency stays in the ranked list."""

    def _drop(self, k):
        kept = [
            row[3] for row in self._rows[self._head : self._head + max(k, 0)]
            if row[2] <= telemetry._DEGRADED and row[3] == row[3]
        ]
        super()._drop(k)
        for latency in kept:
            insort(self._ranked, latency)


class TestTeeth:
    """Seeded bugs the differential comparison must catch."""

    def test_valve_eviction_that_keeps_its_tallies_is_caught(self):
        rows, ops = _seeded_interleaving(1)
        with pytest.raises(AssertionError, match="^n$|n_"):
            check_interleaving(
                rows, ops, max_records=4, hub_cls=_ValveForgetsTallies
            )

    @pytest.mark.parametrize(
        "mutant",
        [_SnapshotKeepsAView, _CompactsListsInPlace, _SnapshotKeepsLiveTallies],
    )
    def test_a_snapshot_that_reads_the_live_window_late_is_caught(self, mutant):
        rows, ops = _seeded_interleaving(2)
        check_interleaving(rows, ops, max_records=7, hub_cls=mutant, defer=0)
        with pytest.raises(AssertionError):
            check_interleaving(rows, ops, max_records=7, hub_cls=mutant, defer=10)

    @pytest.mark.parametrize("max_records", [4, 100_000])
    def test_an_eviction_that_keeps_its_rank_is_caught(self, max_records):
        """Both eviction sites: the window horizon and the valve."""
        rows, ops = _seeded_interleaving(1)
        with pytest.raises(AssertionError, match="latency"):
            check_interleaving(
                rows, ops, max_records=max_records, hub_cls=_EvictionKeepsItsRank
            )

    def test_pairwise_cost_sum_is_caught(self, monkeypatch):
        rows, ops = _seeded_interleaving(1)
        monkeypatch.setattr(
            telemetry,
            "_ordered_mean",
            lambda values: float(np.sum(values)) / len(values) if len(values) else math.nan,
        )
        with pytest.raises(AssertionError, match="mean_cost"):
            check_interleaving(rows, ops, max_records=100_000)


def test_one_tier_window_mean_cost_is_the_whole_stream_mean_cost():
    """Per-tier and whole-stream cost add in one order, on any Python
    (builtin ``sum`` is compensated from 3.12; the hub does not use it)."""
    rng = np.random.default_rng(5)
    hub = TelemetryHub(window_s=100.0)
    for i, cost in enumerate(rng.uniform(1e-6, 1e-3, size=200).tolist()):
        hub.publish(record(f"r{i}", 0.1 * i, tier=0.05, cost=cost))
    snap = hub.snapshot(20.0)
    assert list(snap.tiers) == [0.05]
    assert snap.tiers[0.05].mean_cost == snap.mean_cost
    assert snap.node_seconds_per_s == snap.node_seconds["fast"] / snap.span_s


def test_out_of_order_slice_is_rejected_whole():
    rows = [dict(tier=0.0, outcome=ANSWERED, latency=0.1, cost=1e-5, pair=1,
                 fast_s=0.1, accurate_s=0.2, payload=i) for i in range(3)]
    hub = TelemetryHub(window_s=5.0)
    hub.publish_columns(_columns(rows), slice(0, 1), np.array([1.0]))
    with pytest.raises(ValueError, match="out of order"):
        hub.publish_columns(_columns(rows), slice(1, 3), np.array([2.0, 0.5]))
    snap = hub.snapshot(2.0)
    assert (len(hub), hub.total_published, snap.n) == (1, 1, 1)
    assert snap.tiers[0.0].n == 1


def test_every_row_of_a_slice_lands_at_its_own_stamp():
    """A slice's rows join the window one by one, each evicted by its stamp."""
    rows = [dict(tier=0.0, outcome=ANSWERED, latency=0.1, cost=1e-5, pair=1,
                 fast_s=0.1, accurate_s=0.2, payload=i) for i in range(4)]
    columns = _columns(rows)
    hub = TelemetryHub(window_s=5.0)
    hub.publish(columns.record(0), now=0.5)
    hub.publish_columns(columns, slice(1, 4), np.array([1.0, 1.0, 2.5]))
    whole = hub.snapshot(3.0)
    assert whole.n == 4 and hub.total_published == 4
    assert whole.node_seconds == pytest.approx({"fast": 0.4, "slow": 0.8})
    assert hub.snapshot(5.75).n == 3
    assert hub.snapshot(6.25).n == 1


class _CountingRecord:
    """Proxy that counts every attribute read of the record behind it."""

    def __init__(self, inner, reads):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_reads", reads)

    def __getattr__(self, name):
        self._reads.append(name)
        return getattr(self._inner, name)


class TestIncrementality:
    """Work happens at publish; a snapshot touches no record."""

    def test_snapshot_reads_no_record_attribute(self):
        reads = []
        hub = TelemetryHub(window_s=5.0)
        for i in range(30):
            row = record(
                f"r{i}", 0.1 * i, tier=0.05 * (i % 2),
                failed=i % 7 == 3, shed=i % 5 == 4, degraded=i % 3 == 0,
            )
            hub.publish(_CountingRecord(row, reads))
        at_publish = len(reads)
        assert at_publish >= 30
        for tick in range(1, 8):
            snap = hub.snapshot(3.0 + tick)
        assert snap.n == 0 and len(reads) == at_publish

    def test_percentiles_do_not_go_through_numpy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.percentile called")

        monkeypatch.setattr(np, "percentile", forbidden)
        hub = TelemetryHub(window_s=5.0)
        for i in range(30):
            hub.publish(record(f"r{i}", 0.1 * i, response_time_s=0.01 * (i + 1)))
        snap = hub.snapshot(3.0)
        assert snap.p95_latency.n == 30 and not snap.p95_latency.low_confidence
        source = inspect.getsource(telemetry)
        assert "np.percentile" not in source and "getattr(r" not in source
