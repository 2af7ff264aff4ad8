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

The bulk path is **column-native**.  The columnar engine ends a run
holding :class:`RecordColumns` (one array per record field), and the
report reads them as they are: every aggregate is an array expression
over :attr:`LoadTestReport.numeric`, and :meth:`~LoadTestReport.digest`
formats its per-request rows straight from the columns.  No
:class:`RequestRecord` is built on ``run → digest() → summary()``;
``report.records`` stays a lazy, cached sequence for callers that index
it.  A list-backed (legacy-engine) report builds the same numeric
columns from its records once, on first use, so each aggregate has one
implementation whichever engine ran.

Digest row contract (one line per request, completion order)::

    {request_id}|{payload}|{tier}|{arrival_s}|{finished_s}|{v1,v2}|
    {escalated:0/1}|{failed:0/1}|{retries}|{invocation_cost}|
    {v=node_seconds,... sorted by version}[|shed][|degraded][|retry-denied]\n

On a column-built report ``v1,v2`` and the names beside the node-seconds
come from the row's entry in :attr:`RecordColumns.pairs`, picked by its
:attr:`RecordColumns.pair_code`: the pair table and the code column are
part of this byte contract.

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

__all__ = [
    "Divergence",
    "LoadTestReport",
    "NumericColumns",
    "RecordColumns",
    "RequestRecord",
    "first_divergence",
]


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
    def for_outcome(
        cls, request, outcome, arrival_s: float, *, degraded: bool = False
    ) -> "RequestRecord":
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
            degraded=degraded,
        )


@dataclass
class LoadTestReport:
    """Aggregate view of one simulated load test.

    Built from ``records`` (the legacy engine's list) **or** ``columns``
    (the columnar engine's arrays); given both, the explicit records
    win and the report is list-backed (``columns`` becomes ``None``).

    Attributes:
        records: Per-request records, in completion order.  On a
            column-built report this is a lazy sequence that
            materializes a :class:`RequestRecord` only when indexed.
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
        columns: The engine's :class:`RecordColumns` on a columnar run,
            ``None`` on a list-backed report.  Consumers that can work
            from arrays (span reconstruction) read this instead of
            materializing ``records``.
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
        if self.columns is not None:
            view = self.records
            # ``dataclasses.replace`` hands back the lazy view it found.
            if not (
                isinstance(view, _ColumnarRecords)
                and view._columns is self.columns
            ):
                if len(view):
                    # Explicit records win: on a column-built report
                    # ``dataclasses.replace(report, records=...)`` means
                    # "these records instead", and the columns it copied
                    # along no longer describe them.
                    self.columns = None
                else:
                    self.records = _ColumnarRecords(self.columns)
        if not len(self.records):
            raise ValueError("a load test report needs at least one record")

    @classmethod
    def from_columns(
        cls,
        columns: "RecordColumns",
        *,
        scaling_events: Optional[List[ScalingEvent]] = None,
        final_pool_sizes: Optional[Dict[str, int]] = None,
        offered_rate: Optional[float] = None,
        fault_log: Optional[List[FaultLogEntry]] = None,
        control_log: Optional[List[object]] = None,
    ) -> "LoadTestReport":
        """Build a report directly from dense per-request columns."""
        return cls(
            columns=columns,
            scaling_events=list(scaling_events or ()),
            final_pool_sizes=dict(final_pool_sizes or ()),
            offered_rate=offered_rate,
            fault_log=list(fault_log or ()),
            control_log=list(control_log or ()),
        )

    @cached_property
    def numeric(self) -> "NumericColumns":
        """The records' numeric fields as arrays, in completion order.

        The engine's own columns on a columnar run; built from
        ``records`` once, on first use, otherwise.  Every
        aggregate below reads these arrays and nothing else.
        """
        if self.columns is not None:
            return self.columns
        return NumericColumns(self.records)

    @cached_property
    def _answered(self) -> np.ndarray:
        """Mask of requests that got an answer (neither failed nor shed)."""
        return ~(self.numeric.failed | self.numeric.shed)

    @cached_property
    def _latencies(self) -> np.ndarray:
        return self.numeric.response_time_s[self._answered]

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
        waits = self.numeric.queue_wait_s[self._answered]
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
        return int(np.count_nonzero(self.numeric.failed))

    @property
    def n_shed(self) -> int:
        """Number of requests shed by admission control."""
        return int(np.count_nonzero(self.numeric.shed))

    @property
    def n_degraded(self) -> int:
        """Number of answered requests force-degraded to the fast tier."""
        numeric = self.numeric
        return int(np.count_nonzero(numeric.degraded & ~numeric.failed))

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
        return int(np.count_nonzero(self.numeric.retry_denied))

    @property
    def total_retries(self) -> int:
        """Job attempts re-driven across all requests."""
        return int(self.numeric.retries.sum())

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
        numeric = self.numeric
        return float(numeric.finished_s.max()) - float(numeric.arrival_s.min())

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
        return float(sum(self.numeric.invocation_cost.tolist()))

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
            for version, seconds in self.numeric.node_seconds.items()
        }

    @property
    def escalation_rate(self) -> float:
        """Fraction of requests the ensemble escalated."""
        return float(np.mean(self.numeric.escalated))

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
        rendered
        at 12 significant digits, which is far below the engine's
        bit-determinism and far above any legitimate behavioural change.
        The module docstring gives the row format; both renderers below
        emit it byte for byte.
        """
        h = hashlib.sha256()
        rows = (
            _record_digest_rows(self.records)
            if self.columns is None
            else _column_digest_rows(self.columns)
        )
        for chunk in rows:
            h.update(chunk.encode())
        for version in sorted(self.final_pool_sizes):
            h.update(f"pool:{version}={self.final_pool_sizes[version]}\n".encode())
        for entry in self.fault_log:
            # node_id is deliberately excluded: node ids come from a
            # process-global counter, so they differ between two runs in
            # the same process even when behaviour is identical.
            h.update(
                (
                    f"fault:{entry.time_s:.12e}|{entry.kind}|{entry.version}|"
                    f"{entry.detail}\n"
                ).encode()
            )
        for entry in self.control_log:
            h.update(
                (
                    f"control:{entry.time_s:.12e}|{entry.kind}|"
                    f"{entry.detail}\n"
                ).encode()
            )
        return h.hexdigest()


def _digest_flags(shed: bool, degraded: bool, retry_denied: bool) -> str:
    """A digest row's suffix.  Markers append only when set, so an
    open-loop, budget-free run's digest is byte-identical to the
    pre-control-plane format (the golden traces stand)."""
    return (
        ("|shed" if shed else "")
        + ("|degraded" if degraded else "")
        + ("|retry-denied" if retry_denied else "")
    )


def _record_digest_rows(records: Sequence[RequestRecord]) -> Iterator[str]:
    """Digest rows of a list-backed report, one record at a time."""
    for r in records:
        seconds = ",".join(
            f"{version}={r.node_seconds[version]:.12e}"
            for version in sorted(r.node_seconds)
        )
        flags = _digest_flags(r.shed, r.degraded, r.retry_denied)
        yield (
            f"{r.request_id}|{r.payload}|{r.tier:.12e}|"
            f"{r.arrival_s:.12e}|{r.finished_s:.12e}|"
            f"{','.join(r.versions_used)}|{int(r.escalated)}|"
            f"{int(r.failed)}|{r.retries}|"
            f"{r.invocation_cost:.12e}|{seconds}{flags}\n"
        )


#: Rows formatted and hashed per step of the column renderer: bounds the
#: transient Python floats and row text to well under a MiB however long
#: the run was.
_DIGEST_CHUNK_ROWS = 1024


def _column_digest_rows(columns: "RecordColumns") -> Iterator[str]:
    """Digest rows straight from columns, a chunk of rows per string.

    Emits exactly what :func:`_record_digest_rows` would emit for
    ``[columns.record(i) for i in range(n)]`` without building a record:
    each column goes through ``.tolist()`` (Python floats, so ``%.12e``
    means CPython's formatting — see the module docstring) and every row
    is one ``%`` application of a template precomputed from its pair of
    version names.  The pair table and the code column are part of the
    byte contract: a row's code picks its two templates (one leg billed
    / both), nothing else about the row does.
    """
    head = "%s|%s|%.12e|%.12e|%.12e|"
    body = "|%d|%d|%s|%.12e|"
    # templates[2 * code + both]: every template takes the same
    # arguments, the two seconds in sorted(node_seconds) order; a
    # one-leg row swallows the seconds it does not print with ``%.0s``
    # (the value cut to zero characters).
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
    template_of = 2 * columns.pair_code.astype(np.intp) + columns.billed_accurate
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


#: Record fields the aggregates read, with their column dtype.
_NUMERIC_FIELDS = {
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


class NumericColumns:
    """The record fields every aggregate reads, one array each.

    A list-backed report's records, transposed once.  Completion order;
    ``request_ids`` is a list, the rest are the arrays of
    ``_NUMERIC_FIELDS``.  :class:`RecordColumns` carries all of these
    under the same names, ``node_seconds`` included, which is what lets
    :attr:`LoadTestReport.numeric` return either.
    """

    __slots__ = ("_records", "request_ids", *_NUMERIC_FIELDS)

    def __init__(self, records: Sequence[RequestRecord]) -> None:
        self._records = records
        self.request_ids = [r.request_id for r in records]
        # One field at a time: a row-tuple transposition would hold
        # every field of every record a second time at its peak.
        for name, dtype in _NUMERIC_FIELDS.items():
            values = map(operator.attrgetter(name), records)
            setattr(self, name, np.fromiter(values, dtype, len(records)))

    @property
    def node_seconds(self) -> Dict[str, np.ndarray]:
        """Billed seconds per version, dense (``0.0`` where a request
        billed none of it).  Only ``total_node_seconds`` reads it, so it
        is not part of the transposition every summary pays for."""
        billed: Dict[str, np.ndarray] = {}
        for i, r in enumerate(self._records):
            for version, seconds in r.node_seconds.items():
                if version not in billed:
                    billed[version] = np.zeros(len(self._records))
                billed[version][i] = seconds
        return billed


class RecordColumns:
    """Dense per-request state, one array per :class:`RequestRecord` field.

    The columnar engine's end-of-run product: request identity and payload
    stay Python lists (they are arbitrary objects), every numeric field is
    a float64/bool/int64 array in completion order.  A two-leg ensemble
    bills at most two versions per request, so node-seconds are two dense
    columns — ``node_seconds_accurate`` holds ``-1.0`` where the accurate
    leg consumed no billed time (node-seconds are never negative, so the
    sentinel is unambiguous).  *Which* two versions is per-request state
    too (a tier router serves each request by its own configuration):
    ``pairs`` is the run's small table of distinct ``(fast_version,
    accurate_version)`` pairs (``accurate_version`` is ``None`` for a
    single-version configuration) and ``pair_code`` holds each row's
    index into it.  A fixed-configuration run is the one-pair table with
    an all-zero code column.

    Consumers reach a report's columns through the public
    :attr:`LoadTestReport.columns`.  The lazy ``records`` view keeps its
    own reference private (``_columns``) and nothing outside this module
    reads it.
    """

    __slots__ = (
        "request_ids",
        "payloads",
        "tier",
        "arrival_s",
        "finished_s",
        "response_time_s",
        "queue_wait_s",
        "escalated",
        "invocation_cost",
        "pairs",
        "pair_code",
        "node_seconds_fast",
        "node_seconds_accurate",
        "confidence",
        "failed",
        "retries",
        "shed",
        "degraded",
        "retry_denied",
    )

    def __init__(
        self,
        *,
        request_ids: List[str],
        payloads: List[object],
        tier: np.ndarray,
        arrival_s: np.ndarray,
        finished_s: np.ndarray,
        response_time_s: np.ndarray,
        queue_wait_s: np.ndarray,
        escalated: np.ndarray,
        invocation_cost: np.ndarray,
        pairs: Sequence[Tuple[str, Optional[str]]],
        pair_code: np.ndarray,
        node_seconds_fast: np.ndarray,
        node_seconds_accurate: np.ndarray,
        confidence: np.ndarray,
        failed: Optional[np.ndarray] = None,
        retries: Optional[np.ndarray] = None,
        shed: Optional[np.ndarray] = None,
        degraded: Optional[np.ndarray] = None,
        retry_denied: Optional[np.ndarray] = None,
    ) -> None:
        n = len(request_ids)
        self.request_ids = request_ids
        self.payloads = payloads
        self.tier = tier
        self.arrival_s = arrival_s
        self.finished_s = finished_s
        self.response_time_s = response_time_s
        self.queue_wait_s = queue_wait_s
        self.escalated = escalated
        self.invocation_cost = invocation_cost
        self.pairs = tuple(pairs)
        self.pair_code = pair_code
        self.node_seconds_fast = node_seconds_fast
        self.node_seconds_accurate = node_seconds_accurate
        self.confidence = confidence
        self.failed = failed if failed is not None else np.zeros(n, dtype=bool)
        self.retries = (
            retries if retries is not None else np.zeros(n, dtype=np.int64)
        )
        self.shed = shed if shed is not None else np.zeros(n, dtype=bool)
        self.degraded = (
            degraded if degraded is not None else np.zeros(n, dtype=bool)
        )
        # The columnar loop never denies a retry: all-False by default.
        self.retry_denied = (
            retry_denied
            if retry_denied is not None
            else np.zeros(n, dtype=bool)
        )

    def __len__(self) -> int:
        return len(self.request_ids)

    @property
    def billed_accurate(self) -> np.ndarray:
        """Mask of rows that billed an accurate leg: the row's pair has
        one and its seconds are not the ``-1.0`` sentinel (``nan`` fails
        the comparison too)."""
        has_accurate = np.array([pair[1] is not None for pair in self.pairs])
        return has_accurate[self.pair_code] & (self.node_seconds_accurate >= 0.0)

    @property
    def node_seconds(self) -> Dict[str, np.ndarray]:
        """Billed seconds per version, dense (``0.0`` where none billed);
        a version no request billed is absent, as it would be from every
        record's ``node_seconds``.  One version can be the fast leg of
        one pair and the accurate leg of another."""
        billed: Dict[str, np.ndarray] = {}
        billed_accurate = self.billed_accurate
        for code, (fast_version, accurate_version) in enumerate(self.pairs):
            rows = self.pair_code == code
            for version, mask, seconds in (
                (fast_version, rows, self.node_seconds_fast),
                (
                    accurate_version,
                    rows & billed_accurate,
                    self.node_seconds_accurate,
                ),
            ):
                if version is not None and mask.any():
                    if version not in billed:
                        billed[version] = np.zeros(len(self))
                    billed[version][mask] = seconds[mask]
        return billed

    def _row_node_seconds(self, code, fast_s, accurate_s) -> Dict[str, float]:
        """One row's ``node_seconds``: the fast leg, then the accurate
        leg when the row's pair has one and it billed (its seconds are
        not the ``-1.0`` sentinel)."""
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
        """Materialize one row as the :class:`RequestRecord` the legacy
        engine would have emitted (all floats converted back to Python
        floats, so formatting and hashing behave identically)."""
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
            result=self.payloads[index],
            confidence=float(self.confidence[index]),
            shed=bool(self.shed[index]),
            degraded=bool(self.degraded[index]),
            retry_denied=bool(self.retry_denied[index]),
        )


class _ColumnarRecords(Sequence):
    """Lazy ``records`` sequence over :class:`RecordColumns`.

    The aggregates and the digest read the columns and never pay for
    record objects; code that iterates ``report.records`` (the invariant
    checker, the gateway's ticket resolution, tests) gets real
    :class:`RequestRecord` instances, built on first access and cached.
    """

    __slots__ = ("_columns", "_cache")

    def __init__(self, columns: RecordColumns) -> None:
        self._columns = columns
        self._cache: List[Optional[RequestRecord]] = [None] * len(columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        record = self._cache[index]
        if record is None:
            record = self._columns.record(index)
            self._cache[index] = record
        return record

    def __iter__(self) -> Iterator[RequestRecord]:
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True)
class Divergence:
    """First observable difference between two reports.

    ``where`` names the stream (``record``, ``pool``, ``fault``,
    ``control`` or ``length``), ``index`` the position in that stream,
    ``field`` the diverging record field (record stream only).
    """

    where: str
    index: Optional[int]
    field: Optional[str]
    left: object
    right: object

    def describe(self, left_name: str = "left", right_name: str = "right") -> str:
        place = f"{self.where}[{self.index}]" if self.index is not None else self.where
        if self.field:
            place += f".{self.field}"
        return (
            f"first divergence at {place}:\n"
            f"  {left_name:>8}: {self.left!r}\n"
            f"  {right_name:>8}: {self.right!r}"
        )


#: Record fields the digest covers, compared in digest order.
_DIGEST_RECORD_FIELDS = (
    "request_id",
    "payload",
    "tier",
    "arrival_s",
    "finished_s",
    "versions_used",
    "escalated",
    "failed",
    "retries",
    "invocation_cost",
    "node_seconds",
    "shed",
    "degraded",
    "retry_denied",
)

_FLOAT_RECORD_FIELDS = frozenset({"tier", "arrival_s", "finished_s", "invocation_cost"})


def _render_field(name: str, value: object) -> str:
    """Render a record field exactly as :meth:`LoadTestReport.digest` does,
    so ``first_divergence`` flags precisely what the digest flags."""
    if name in _FLOAT_RECORD_FIELDS:
        return f"{value:.12e}"
    if name == "node_seconds":
        return ",".join(f"{v}={value[v]:.12e}" for v in sorted(value))
    if name == "versions_used":
        return ",".join(value)
    if name in ("escalated", "failed", "shed", "degraded", "retry_denied"):
        return str(int(value))
    return str(value)


def first_divergence(
    left: LoadTestReport, right: LoadTestReport
) -> Optional[Divergence]:
    """Locate the first digest-visible difference between two reports.

    Walks the record stream field by field (in digest rendering, so a
    sub-last-significant-digit float wiggle that the digest would not see
    is not reported), then the pool sizes, the fault log and the control
    log.  Returns ``None`` when the two reports digest identically.
    """
    n = min(len(left.records), len(right.records))
    for i in range(n):
        record_l, record_r = left.records[i], right.records[i]
        for name in _DIGEST_RECORD_FIELDS:
            value_l = getattr(record_l, name)
            value_r = getattr(record_r, name)
            if _render_field(name, value_l) != _render_field(name, value_r):
                return Divergence("record", i, name, value_l, value_r)
    if len(left.records) != len(right.records):
        return Divergence(
            "length", None, "n_records", len(left.records), len(right.records)
        )
    if left.final_pool_sizes != right.final_pool_sizes:
        return Divergence(
            "pool", None, None, left.final_pool_sizes, right.final_pool_sizes
        )
    for i, (entry_l, entry_r) in enumerate(
        zip(left.fault_log, right.fault_log)
    ):
        key_l = (f"{entry_l.time_s:.12e}", entry_l.kind, entry_l.version, entry_l.detail)
        key_r = (f"{entry_r.time_s:.12e}", entry_r.kind, entry_r.version, entry_r.detail)
        if key_l != key_r:
            return Divergence("fault", i, None, entry_l, entry_r)
    if len(left.fault_log) != len(right.fault_log):
        return Divergence(
            "length", None, "n_faults", len(left.fault_log), len(right.fault_log)
        )
    for i, (entry_l, entry_r) in enumerate(
        zip(left.control_log, right.control_log)
    ):
        key_l = (f"{entry_l.time_s:.12e}", entry_l.kind, entry_l.detail)
        key_r = (f"{entry_r.time_s:.12e}", entry_r.kind, entry_r.detail)
        if key_l != key_r:
            return Divergence("control", i, None, entry_l, entry_r)
    if len(left.control_log) != len(right.control_log):
        return Divergence(
            "length",
            None,
            "n_control",
            len(left.control_log),
            len(right.control_log),
        )
    return None
