"""Load-test results: per-request records and tail-latency aggregates.

The replay benchmarks report *means* because they ignore contention; under
offered load the interesting numbers are the tail percentiles (p95/p99
response time), the queueing share of latency, throughput, and what the
traffic cost.  :class:`LoadTestReport` aggregates the per-request
:class:`RequestRecord` stream the engine emits, plus the autoscaler's
actions, into exactly those numbers.

Fault-injection scenarios add the degraded-mode views: which requests
failed terminally (availability), how many job attempts were re-driven
(retries), the *goodput* — successful responses per second, the number an
SLO actually cares about — and the log of faults the engine applied.
Latency percentiles are computed over successful requests only; a request
that never got an answer has no response time to rank.

:meth:`LoadTestReport.digest` condenses an entire run — arrival times,
routing decisions, completion order, retries, costs — into one SHA-256
hex string.  Because the engine is bit-deterministic for a fixed seed and
scenario, the digest is the regression currency of the golden-trace test
harness: two runs of the same scenario must digest identically.

A report has **one backing store**: :class:`RecordColumns`, one array
per record field.  The columnar engine ends a run holding them; a record
list (the scalar loop's, a test's, ``dataclasses.replace(report,
records=...)``) is transposed once, at the constructor, by
:meth:`RecordColumns.from_records`.  Every aggregate is an array
expression over :attr:`LoadTestReport.columns` and
:meth:`~LoadTestReport.digest` formats its rows straight from them: no
:class:`RequestRecord` is built on ``run → digest() → summary()``, and
``report.records`` is a lazy, cached sequence for callers that index it.

Digest row contract (one line per request, completion order)::

    {request_id}|{payload}|{tier}|{arrival_s}|{finished_s}|{v1,v2}|
    {escalated:0/1}|{failed:0/1}|{retries}|{invocation_cost}|
    {v=node_seconds,... sorted by version}[|shed][|degraded][|retry-denied]\n

``v1,v2`` and the names beside the node-seconds come from the row's entry
in :attr:`RecordColumns.pairs`, picked by its
:attr:`RecordColumns.pair_code`: the pair table and the code column are
part of this byte contract.  A row that billed nothing (a failed or shed
request: ``node_seconds_fast`` is the ``-1.0`` sentinel) names no
version whatever its pair: both fields render empty.

Every float is a **Python** ``float`` rendered with ``.12e``.  The
column renderer therefore converts each array with ``.tolist()`` before
formatting rather than formatting NumPy scalars or using
``np.char``/``np.array2string``: CPython's float formatting is fixed by
the language, NumPy's has changed between releases, and the golden
digests must hold across the CI Python/NumPy matrix.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.simulation.autoscaler import ScalingEvent
from repro.service.simulation.faults import FaultLogEntry

__all__ = ["LoadTestReport", "RecordColumns", "RequestRecord"]


@dataclass(frozen=True)
class RequestRecord:
    """One simulated request's life, from arrival to response.

    Attributes:
        request_id: Simulator-assigned request identifier.
        payload: The measured request id the request replayed.
        tier: Requested tolerance.
        arrival_s: Virtual arrival time.
        finished_s: Virtual time the response became available (for a
            failed request: the time failure became terminal).
        response_time_s: End-to-end latency including queueing.
        queue_wait_s: Time the request's first job waited before starting
            (``0.0`` for a request that failed before any job finished).
        versions_used: Versions that consumed billed node time for the
            request.
        escalated: Whether the ensemble escalated to the accurate version.
        invocation_cost: Amount billed to the consumer (``0.0`` for a
            failed request — failures are not billed).
        node_seconds: Node-seconds consumed per version (amortized over
            batches).
        failed: True when the request failed terminally (attempts
            exhausted, or capacity never recovered).
        retries: Number of re-driven job attempts across the request's
            versions (``0`` on a healthy run).
        shed: True when admission control dropped the request before any
            job ran (closed-loop runs only).  A shed request is neither
            a success nor a terminal failure: the conservation law is
            submitted = completed + failed + shed.
        degraded: True when admission control force-degraded the request
            to the fast tier (it was answered, by a cheaper ensemble
            than routing planned).
        retry_denied: True when a retry budget
            (:class:`~repro.service.simulation.faults.RetryPolicy`'s
            ``retry_budget`` / ``max_inflight_retries`` /
            ``max_total_retries``) refused a retry this request's policy
            would otherwise have scheduled.
        result: The answering version's output (``None`` for a failed
            request).  Excluded from :meth:`LoadTestReport.digest` —
            outputs can be arbitrary objects; behaviour is pinned by the
            routing/billing fields above.
        confidence: The answering version's confidence (``None`` for a
            failed request).
    """

    request_id: str
    payload: object
    tier: float
    arrival_s: float
    finished_s: float
    response_time_s: float
    queue_wait_s: float
    versions_used: Tuple[str, ...]
    escalated: bool
    invocation_cost: float
    node_seconds: Dict[str, float] = field(default_factory=dict)
    failed: bool = False
    retries: int = 0
    result: object = None
    confidence: Optional[float] = None
    shed: bool = False
    degraded: bool = False
    retry_denied: bool = False

    @classmethod
    def for_shed(cls, request, at_s: float) -> "RequestRecord":
        """The record of an arrival admission control dropped at ``at_s``."""
        return cls(
            request_id=request.request_id,
            payload=request.payload,
            tier=request.tolerance,
            arrival_s=at_s,
            finished_s=at_s,
            response_time_s=0.0,
            queue_wait_s=0.0,
            versions_used=(),
            escalated=False,
            invocation_cost=0.0,
            shed=True,
        )

    @classmethod
    def for_outcome(cls, request, outcome, arrival_s: float) -> "RequestRecord":
        """The record of a synchronously executed request: no queue, so
        the :class:`~repro.core.executor.ExecutionOutcome` is the whole
        story and only the session clock's ``arrival_s`` is the caller's."""
        return cls(
            request_id=outcome.request_id,
            payload=request.payload,
            tier=request.tolerance,
            arrival_s=arrival_s,
            finished_s=arrival_s + outcome.response_time_s,
            response_time_s=outcome.response_time_s,
            queue_wait_s=0.0,
            versions_used=outcome.versions_used,
            escalated=outcome.escalated,
            invocation_cost=outcome.invocation_cost,
            node_seconds=dict(outcome.node_seconds),
            result=outcome.result,
            confidence=outcome.confidence,
        )


@dataclass
class LoadTestReport:
    """Aggregate view of one simulated load test.

    Built from ``columns`` or from a ``records`` list, transposed into
    columns on the spot (so ``columns`` is never ``None``); given both,
    the explicit records win: ``dataclasses.replace(report,
    records=...)`` means "these records instead".

    Attributes:
        records: Per-request records, in completion order: a lazy
            sequence that materializes a :class:`RequestRecord` only
            when indexed (a report built from a list serves that list's
            own objects).
        scaling_events: Actions the autoscaler took (empty without one).
        final_pool_sizes: Node count per version when the test drained.
        offered_rate: Mean offered arrival rate, when known.
        fault_log: Faults the engine applied (empty for a healthy run).
        control_log: Control-plane actions — SLO transitions, policy
            swaps, rollbacks (empty for an open-loop run).
        engine_used: Which engine produced the records ("columnar" or
            "legacy"), when the serving simulator stamped it.
        fallback_reason: Why a columnar-requested run fell back to the
            legacy loop (``None`` when no fallback happened).  Like
            ``engine_used`` this describes *how* the run executed, not
            *what* it produced, so neither field enters the digest.
        columns: The report's :class:`RecordColumns`: what every
            aggregate, ticket resolution, SLO replay and span
            reconstruction read instead of materializing ``records``.
    """

    records: Sequence[RequestRecord] = ()
    scaling_events: List[ScalingEvent] = field(default_factory=list)
    final_pool_sizes: Dict[str, int] = field(default_factory=dict)
    offered_rate: Optional[float] = None
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    control_log: List[object] = field(default_factory=list)
    engine_used: Optional[str] = None
    fallback_reason: Optional[str] = None
    columns: Optional["RecordColumns"] = None

    def __post_init__(self) -> None:
        records = self.records
        # ``dataclasses.replace`` hands back the lazy view it found.
        if isinstance(records, _ColumnarRecords) and records._columns is self.columns:
            return
        if len(records):
            self.columns = RecordColumns.from_records(records)
        if not self.columns:  # none given, or no rows
            raise ValueError("a load test report needs at least one record")
        self.records = _ColumnarRecords(self.columns, records)

    @cached_property
    def _answered(self) -> np.ndarray:
        """Mask of requests that got an answer (neither failed nor shed)."""
        return ~(self.columns.failed | self.columns.shed)

    @cached_property
    def _latencies(self) -> np.ndarray:
        return self.columns.response_time_s[self._answered]

    # ------------------------------------------------------------------
    # latency (over successful requests)
    # ------------------------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of successful response time.

        Returns ``nan`` when every request failed — there is no latency
        distribution to rank.
        """
        if self._latencies.size == 0:
            return float("nan")
        return float(np.percentile(self._latencies, q))

    @property
    def p50_latency_s(self) -> float:
        """Median response time."""
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile response time."""
        return self.latency_percentile(95.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile response time."""
        return self.latency_percentile(99.0)

    @property
    def mean_latency_s(self) -> float:
        """Mean response time of successful requests."""
        if self._latencies.size == 0:
            return float("nan")
        return float(self._latencies.mean())

    @property
    def mean_queue_wait_s(self) -> float:
        """Mean time a request's first job sat queued before starting."""
        waits = self.columns.queue_wait_s[self._answered]
        if waits.size == 0:
            return float("nan")
        return float(np.mean(waits))

    # ------------------------------------------------------------------
    # throughput / cost / behaviour
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Number of resolved requests (successes and terminal failures)."""
        return len(self.records)

    @property
    def n_failed(self) -> int:
        """Number of requests that failed terminally."""
        return int(np.count_nonzero(self.columns.failed))

    @property
    def n_shed(self) -> int:
        """Number of requests shed by admission control."""
        return int(np.count_nonzero(self.columns.shed))

    @property
    def n_degraded(self) -> int:
        """Number of answered requests force-degraded to the fast tier."""
        columns = self.columns
        return int(np.count_nonzero(columns.degraded & ~columns.failed))

    @property
    def availability(self) -> float:
        """Fraction of requests that got an answer.

        Shed requests got none, so they count against availability
        exactly as terminal failures do (submitted = completed +
        failed + shed).
        """
        return 1.0 - (self.n_failed + self.n_shed) / self.n_requests

    @property
    def n_retry_denied(self) -> int:
        """Number of requests that had a retry denied by a budget."""
        return int(np.count_nonzero(self.columns.retry_denied))

    @property
    def total_retries(self) -> int:
        """Job attempts re-driven across all requests."""
        return int(self.columns.retries.sum())

    @property
    def retry_amplification(self) -> float:
        """Job attempts driven per resolved request (``1.0`` = no retries).

        The storm-containment number: an unbounded retry policy under a
        retry storm multiplies offered load by this factor exactly when
        capacity is already failing.
        """
        return 1.0 + self.total_retries / self.n_requests

    @property
    def makespan_s(self) -> float:
        """Virtual time from first arrival to last response."""
        columns = self.columns
        return float(columns.finished_s.max()) - float(columns.arrival_s.min())

    @property
    def throughput_rps(self) -> float:
        """Resolved requests per virtual second."""
        span = self.makespan_s
        return self.n_requests / span if span > 0.0 else float("inf")

    @property
    def goodput_rps(self) -> float:
        """Successful responses per virtual second (what an SLO counts)."""
        span = self.makespan_s
        successes = self.n_requests - self.n_failed - self.n_shed
        return successes / span if span > 0.0 else float("inf")

    @property
    def total_invocation_cost(self) -> float:
        """Sum billed to consumers across all requests."""
        # The builtin left-to-right sum over Python floats, not
        # ``ndarray.sum`` (pairwise): the cost per request is compared
        # exactly across commits.
        return float(sum(self.columns.invocation_cost.tolist()))

    @property
    def mean_invocation_cost(self) -> float:
        """Mean billed cost per resolved request."""
        return self.total_invocation_cost / self.n_requests

    @property
    def total_node_seconds(self) -> Dict[str, float]:
        """Node-seconds billed per version across all requests."""
        # cumsum adds strictly left to right, as the per-record
        # accumulation it replaces did.
        return {
            version: float(np.cumsum(seconds)[-1])
            for version, seconds in self.columns.node_seconds.items()
        }

    @property
    def escalation_rate(self) -> float:
        """Fraction of requests the ensemble escalated."""
        return float(np.mean(self.columns.escalated))

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a flat dict (for tables/JSON)."""
        return {
            "n_requests": self.n_requests,
            "offered_rate_rps": (
                float("nan") if self.offered_rate is None else self.offered_rate
            ),
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "availability": self.availability,
            "n_failed": self.n_failed,
            "n_shed": self.n_shed,
            "n_degraded": self.n_degraded,
            "n_retry_denied": self.n_retry_denied,
            "total_retries": self.total_retries,
            "retry_amplification": self.retry_amplification,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "mean_invocation_cost": self.mean_invocation_cost,
            "escalation_rate": self.escalation_rate,
            "n_scaling_events": len(self.scaling_events),
            "n_fault_events": len(self.fault_log),
            "n_control_events": len(self.control_log),
        }

    # ------------------------------------------------------------------
    # determinism
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 digest of the run's observable behaviour.

        Covers, per request in completion order: identity, payload, tier,
        arrival and finish times, routing (versions billed), escalation,
        failure, retry count, billed cost and per-version node-seconds
        (with shed/degraded markers on closed-loop records) — plus the
        final pool sizes, the fault log and the control log.  Floats are
        rendered at 12 significant digits, which is far below the engine's
        bit-determinism and far above any legitimate behavioural change.
        The module docstring gives the row format.
        """
        h = hashlib.sha256()
        for chunk in _column_digest_rows(self.columns):
            h.update(chunk.encode())
        for version in sorted(self.final_pool_sizes):
            h.update(f"pool:{version}={self.final_pool_sizes[version]}\n".encode())
        for entry in self.fault_log:
            h.update(_fault_line(entry).encode())
        for entry in self.control_log:
            h.update(_control_line(entry).encode())
        return h.hexdigest()


def _fault_line(entry: FaultLogEntry) -> str:
    """A fault-log entry's digest line.  ``node_id`` is deliberately
    excluded: node ids come from a process-global counter, so they differ
    between two runs in the same process even when behaviour is identical."""
    return f"fault:{entry.time_s:.12e}|{entry.kind}|{entry.version}|{entry.detail}\n"


def _control_line(entry) -> str:
    """A control-log entry's digest line."""
    return f"control:{entry.time_s:.12e}|{entry.kind}|{entry.detail}\n"


def _digest_flags(shed: bool, degraded: bool, retry_denied: bool) -> str:
    """A digest row's suffix.  Markers append only when set, so an
    open-loop, budget-free run's digest is byte-identical to the
    pre-control-plane format (the golden traces stand)."""
    return (
        ("|shed" if shed else "")
        + ("|degraded" if degraded else "")
        + ("|retry-denied" if retry_denied else "")
    )


#: Rows formatted and hashed per step of the column renderer: bounds the
#: transient Python floats and row text to well under a MiB however long
#: the run was.
_DIGEST_CHUNK_ROWS = 1024


def _column_digest_rows(columns: "RecordColumns") -> Iterator[str]:
    """Digest rows straight from columns, a chunk of rows per string.

    Emits the module docstring's row for every request without building
    a record (``tests/oracle/report_reference.py`` renders the same rows
    from ``columns.record(i)``): each column goes through ``.tolist()``
    (Python floats, so ``%.12e`` means CPython's formatting) and every
    row is one ``%`` application of a template precomputed from its pair
    of version names.  The pair table and the code column are part of
    the byte contract: a row's :attr:`RecordColumns.billed_shape` picks
    its template, nothing else about the row does.
    """
    head = "%s|%s|%.12e|%.12e|%.12e|"
    body = "|%d|%d|%s|%.12e|"
    # templates[billed_shape]: every template takes the same arguments,
    # the two seconds in sorted(node_seconds) order; a row swallows the
    # seconds it does not print with ``%.0s`` (the value cut to zero
    # characters).
    templates: List[str] = []
    accurate_first: List[bool] = []
    for fast_version, accurate_version in columns.pairs:
        fast = fast_version.replace("%", "%%")
        fast_seconds = f"{fast}=%.12e"
        if accurate_version is None:
            one_leg = two_leg = f"{head}{fast}{body}{fast_seconds}%.0s%s\n"
            accurate_first.append(False)
        else:
            accurate = accurate_version.replace("%", "%%")
            accurate_first.append(accurate_version < fast_version)
            if accurate_first[-1]:
                one_seconds = f"%.0s{fast_seconds}"
                two_seconds = f"{accurate}=%.12e,{fast_seconds}"
            else:
                one_seconds = f"{fast_seconds}%.0s"
                two_seconds = f"{fast_seconds},{accurate}=%.12e"
            one_leg = f"{head}{fast}{body}{one_seconds}%s\n"
            two_leg = f"{head}{fast},{accurate}{body}{two_seconds}%s\n"
        templates += [one_leg, two_leg]
    templates.append(f"{head}{body}%.0s%.0s%s\n")  # nothing billed
    template_of = columns.billed_shape
    first, second = columns.node_seconds_fast, columns.node_seconds_accurate
    if any(accurate_first):
        swapped = np.array(accurate_first)[columns.pair_code]
        first, second = (
            np.where(swapped, second, first),
            np.where(swapped, first, second),
        )
    flagged = bool(
        (columns.shed | columns.degraded | columns.retry_denied).any()
    )
    for start in range(0, len(columns), _DIGEST_CHUNK_ROWS):
        rows = slice(start, start + _DIGEST_CHUNK_ROWS)
        flags = (
            map(
                _digest_flags,
                columns.shed[rows].tolist(),
                columns.degraded[rows].tolist(),
                columns.retry_denied[rows].tolist(),
            )
            if flagged
            else itertools.repeat("")
        )
        yield "".join(
            [
                templates[template] % row
                for template, row in zip(
                    template_of[rows].tolist(),
                    zip(
                        columns.request_ids[rows],
                        # what an f-string's ``{payload}`` renders
                        map(format, columns.payloads[rows]),
                        columns.tier[rows].tolist(),
                        columns.arrival_s[rows].tolist(),
                        columns.finished_s[rows].tolist(),
                        columns.escalated[rows].tolist(),
                        columns.failed[rows].tolist(),
                        columns.retries[rows].tolist(),
                        columns.invocation_cost[rows].tolist(),
                        first[rows].tolist(),
                        second[rows].tolist(),
                        flags,
                    ),
                )
            ]
        )


#: Record fields that are one numeric column each, with its dtype.
_NUMERIC_FIELDS = {
    "tier": float,
    "arrival_s": float,
    "finished_s": float,
    "response_time_s": float,
    "queue_wait_s": float,
    "escalated": bool,
    "invocation_cost": float,
    "failed": bool,
    "retries": np.int64,
    "shed": bool,
    "degraded": bool,
    "retry_denied": bool,
}


@dataclass(eq=False, repr=False, slots=True, kw_only=True)
class RecordColumns:
    """Dense per-request state, one array per :class:`RequestRecord` field.

    Every report's backing store: request identity and payload stay
    Python lists (they are arbitrary objects), every numeric field is a
    float64/bool/int64 array in completion order.  A two-leg ensemble
    bills at most two versions per request, so node-seconds are two dense
    columns.  *Which* two versions is per-request state too (a tier
    router serves each request by its own configuration): ``pairs`` is
    the run's small table of distinct ``(fast_version,
    accurate_version)`` pairs (``accurate_version`` is ``None`` for a
    single-version configuration) and ``pair_code`` holds each row's
    index into it.  Three encodings carry what a faulted record has:

    - **nothing billed** — ``-1.0`` in a node-seconds column (they are
      never negative) means the leg billed no time: on
      ``node_seconds_accurate`` only the fast leg billed; on
      ``node_seconds_fast`` the request billed nothing (failed or shed:
      ``versions_used == ()``, ``node_seconds == {}``), whatever its
      pair and accurate column say.
    - **no confidence** — ``no_confidence`` masks the rows whose record
      has ``confidence is None``; a measured ``nan`` stays a ``nan``.
    - **a result that is not the payload** — ``results`` is ``None``
      while every row's result is its payload (a replay run), the
      per-row list otherwise.

    Raises:
        ValueError: A column's length is not ``len(request_ids)``, or a
            ``pair_code`` falls outside ``pairs``.
    """

    request_ids: List[str]
    payloads: List[object]
    tier: np.ndarray
    arrival_s: np.ndarray
    finished_s: np.ndarray
    response_time_s: np.ndarray
    queue_wait_s: np.ndarray
    escalated: np.ndarray
    invocation_cost: np.ndarray
    pairs: Sequence[Tuple[str, Optional[str]]]
    pair_code: np.ndarray
    node_seconds_fast: np.ndarray
    node_seconds_accurate: np.ndarray
    confidence: np.ndarray
    failed: Optional[np.ndarray] = None
    retries: Optional[np.ndarray] = None
    shed: Optional[np.ndarray] = None
    degraded: Optional[np.ndarray] = None
    retry_denied: Optional[np.ndarray] = None
    no_confidence: Optional[np.ndarray] = None
    results: Optional[List[object]] = None

    def __post_init__(self) -> None:
        n = len(self.request_ids)
        self.pairs = tuple(self.pairs)
        for name, dtype in {**_NUMERIC_FIELDS, "no_confidence": bool}.items():
            if getattr(self, name) is None:  # optional: set on no row
                setattr(self, name, np.zeros(n, dtype))
        # A ragged column would be truncated by the renderers' zips and
        # mis-divide the aggregates; a stray code would index another
        # request's versions.
        for name in self.__slots__:
            column = getattr(self, name)
            if name != "pairs" and column is not None and len(column) != n:
                raise ValueError(
                    f"column {name!r} has {len(column)} rows, "
                    f"'request_ids' has {n}"
                )
        codes = self.pair_code
        if n and not 0 <= codes.min() <= codes.max() < len(self.pairs):
            raise ValueError(
                f"column 'pair_code' spans {int(codes.min())}.."
                f"{int(codes.max())}, 'pairs' has {len(self.pairs)} rows"
            )

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord]) -> "RecordColumns":
        """Transpose a record list: ``from_records(rs).record(i) == rs[i]``
        field for field.  A record's ``node_seconds`` is its row of the
        pair table: two keys are a ``(fast, accurate)`` pair, one key is
        the fast leg of ``(version, None)`` (the scalar loop's
        accurate-only fallback included), none is the sentinel.

        Raises:
            ValueError: A record's ``versions_used`` is not its
                ``node_seconds`` keys in order, or it bills more than two
                versions or negative seconds: shapes no engine produces
                and the columns cannot express.
        """
        n = len(records)
        codes: Dict[Tuple[str, Optional[str]], int] = {}
        pair_code, seconds = [], []
        for r in records:
            billed = r.node_seconds
            if (
                r.versions_used != tuple(billed)
                or len(billed) > 2
                or min(billed.values(), default=0.0) < 0.0
            ):
                raise ValueError(
                    f"request {r.request_id!r}: versions_used "
                    f"{r.versions_used!r} must be the keys of node_seconds "
                    f"{billed!r}, in order: two at most, none billing "
                    "negative seconds"
                )
            # Code 0 for a row that billed nothing: any pair will do.
            pair = (*billed, None)[:2]
            pair_code.append(codes.setdefault(pair, len(codes)) if billed else 0)
            seconds.append((*billed.values(), -1.0, -1.0)[:2])
        fast_seconds, accurate_seconds = np.array(seconds, float).reshape(n, 2).T.copy()
        payloads = [r.payload for r in records]
        results = [r.result for r in records]
        return cls(
            request_ids=[r.request_id for r in records],
            payloads=payloads,
            # A table nobody billed keeps one row for code 0 to index.
            pairs=tuple(codes) or (("", None),),
            pair_code=np.array(pair_code, dtype=np.intp),
            node_seconds_fast=fast_seconds,
            node_seconds_accurate=accurate_seconds,
            confidence=np.array(
                [0.0 if r.confidence is None else r.confidence for r in records],
                dtype=float,
            ),
            no_confidence=np.fromiter((r.confidence is None for r in records), bool, n),
            results=None if all(map(operator.is_, results, payloads)) else results,
            # One field at a time: a row-tuple transposition would hold
            # every field of every record a second time at its peak.
            **{
                name: np.fromiter(map(operator.attrgetter(name), records), dtype, n)
                for name, dtype in _NUMERIC_FIELDS.items()
            },
        )

    def __len__(self) -> int:
        return len(self.request_ids)

    @property
    def nothing_billed(self) -> np.ndarray:
        """Mask of rows that billed no version (``-1.0`` on the fast leg)."""
        return self.node_seconds_fast < 0.0

    @property
    def billed_accurate(self) -> np.ndarray:
        """Mask of rows that billed an accurate leg: the row billed, its
        pair has one and its seconds are not ``-1.0`` (nor ``nan``)."""
        has_accurate = np.array([pair[1] is not None for pair in self.pairs])
        billed = has_accurate[self.pair_code] & (self.node_seconds_accurate >= 0.0)
        return billed & ~self.nothing_billed

    @property
    def billed_shape(self) -> np.ndarray:
        """Which legs each row billed, as one code: ``2 * pair_code`` for
        the fast leg alone, ``+ 1`` with the accurate leg, and
        ``2 * len(pairs)`` for a row that billed nothing."""
        shape = 2 * self.pair_code.astype(np.intp) + self.billed_accurate
        shape[self.nothing_billed] = 2 * len(self.pairs)
        return shape

    def versions_used(self) -> List[Tuple[str, ...]]:
        """Each row's ``versions_used`` as :meth:`record` gives it."""
        # Indexed by billed_shape: per pair one leg, then both; last, none.
        used = [v for fast, slow in self.pairs for v in ((fast,), (fast, slow))]
        used.append(())
        return [used[shape] for shape in self.billed_shape.tolist()]

    @property
    def node_seconds(self) -> Dict[str, np.ndarray]:
        """Billed seconds per version, dense (``0.0`` where none billed);
        a version no request billed is absent, as it would be from every
        record's ``node_seconds``.  One version can be the fast leg of
        one pair and the accurate leg of another."""
        billed: Dict[str, np.ndarray] = {}
        legs = (
            (~self.nothing_billed, self.node_seconds_fast),
            (self.billed_accurate, self.node_seconds_accurate),
        )
        for code, pair in enumerate(self.pairs):
            rows = self.pair_code == code
            for version, (did_bill, seconds) in zip(pair, legs):
                mask = rows & did_bill
                if mask.any():
                    if version not in billed:
                        billed[version] = np.zeros(len(self))
                    billed[version][mask] = seconds[mask]
        return billed

    def _row_node_seconds(self, code, fast_s, accurate_s) -> Dict[str, float]:
        """One row's ``node_seconds``: nothing on the fast-leg sentinel,
        else the fast leg, then the accurate leg if the pair has one and
        it billed."""
        if fast_s < 0.0:
            return {}
        fast_version, accurate_version = self.pairs[code]
        if accurate_version is not None and accurate_s >= 0.0:
            return {fast_version: fast_s, accurate_version: accurate_s}
        return {fast_version: fast_s}

    def row_node_seconds(self, rows: slice) -> List[Dict[str, float]]:
        """Each row's ``node_seconds`` as :meth:`record` gives it, without
        building the records."""
        columns = (self.pair_code, self.node_seconds_fast, self.node_seconds_accurate)
        return [
            self._row_node_seconds(*row)
            for row in zip(*(column[rows].tolist() for column in columns))
        ]

    def record(self, index: int) -> RequestRecord:
        """Materialize one row as a :class:`RequestRecord` (every value a
        Python scalar, so formatting and hashing behave as they would on
        a record an engine emitted)."""
        node_seconds = self._row_node_seconds(
            self.pair_code[index],
            float(self.node_seconds_fast[index]),
            float(self.node_seconds_accurate[index]),
        )
        return RequestRecord(
            request_id=self.request_ids[index],
            payload=self.payloads[index],
            tier=float(self.tier[index]),
            arrival_s=float(self.arrival_s[index]),
            finished_s=float(self.finished_s[index]),
            response_time_s=float(self.response_time_s[index]),
            queue_wait_s=float(self.queue_wait_s[index]),
            versions_used=tuple(node_seconds),
            escalated=bool(self.escalated[index]),
            invocation_cost=float(self.invocation_cost[index]),
            node_seconds=node_seconds,
            failed=bool(self.failed[index]),
            retries=int(self.retries[index]),
            result=(self.results or self.payloads)[index],
            confidence=(
                None if self.no_confidence[index] else float(self.confidence[index])
            ),
            shed=bool(self.shed[index]),
            degraded=bool(self.degraded[index]),
            retry_denied=bool(self.retry_denied[index]),
        )


class _ColumnarRecords(Sequence):
    """Lazy ``records`` sequence over :class:`RecordColumns`.

    Code that iterates ``report.records`` (the invariant checker,
    tests) gets real :class:`RequestRecord` instances, built on first
    access and cached; the records a report was transposed from are
    served as they are, so errors carry the caller's own.
    """

    __slots__ = ("_columns", "_cache")

    def __init__(
        self, columns: RecordColumns, given: Sequence[RequestRecord] = ()
    ) -> None:
        self._columns = columns
        self._cache = list(given) or [None] * len(columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        record = self._cache[index]  # negative and out-of-range as a list
        if record is None:
            record = self._cache[index] = self._columns.record(index)
        return record
