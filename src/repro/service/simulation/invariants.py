"""Opt-in conservation-law checking for the serving simulator.

A discrete-event engine with fault injection has many ways to quietly go
wrong: a crashed batch's requests can vanish, a retry can double-resolve a
request, billed node-seconds can drift from the machine time actually
worked.  :class:`InvariantChecker` is a ledger the engine feeds (when
built with ``check_invariants=True``) from inside its event handlers; at
drain time :meth:`InvariantChecker.verify` reconciles the ledger against
the emitted :class:`~repro.service.simulation.report.LoadTestReport` and
the cluster's books, raising :class:`InvariantViolation` on the first
broken law.

The laws:

1. **Conservation of requests** — every arrived request is finalized
   exactly once: it completes, fails terminally, or is shed by admission
   control (submitted = completed + failed + shed).  No request is lost,
   none is answered twice.
2. **Conservation of attempts** — every started job attempt is closed
   exactly once (completed, failed or cancelled), and before its request
   is finalized: no attempt outlives its request; attempt numbers per
   ``(request, version)`` are contiguous from 1; a retry only ever
   follows a failed attempt; no job exceeds the retry policy's
   ``max_attempts``.
3. **Monotone clock** — ledger events arrive in non-decreasing virtual
   time.
4. **Billing reconciliation** — a request is only ever billed node-seconds
   its *successful* job completions actually reported (early termination
   may bill less, never more), and per version the total billed
   node-seconds never exceed the machine time worked across live and
   retired nodes.
5. **Drained means drained** — when the report is emitted, no queue still
   holds work.
6. **Retry budgets bind** — retries actually driven never exceed the
   policy's per-request ``retry_budget`` or run-wide ``max_total_retries``
   when those are set, and a record's ``retry_denied`` flag agrees with
   the ledger of denials the engine reported.
7. **Degradations recover at most once** — in the fault log, per version,
   ``gray-restore`` entries never outnumber ``gray`` onsets and ``warmed``
   entries never outnumber ``cold-start`` onsets (a restore without an
   onset would mean the engine un-degraded a healthy node).
8. **One batch at a time per node** — a node starts a job or batch only
   once its previous one has ended, at its finish or at the crash that
   aborted it.  Billing cannot see a double start: the node's worked
   time counts both batches.

The checker is pure bookkeeping: it draws no randomness and schedules no
events, so enabling it cannot change simulated behaviour (golden digests
are identical with and without it).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

__all__ = ["InvariantChecker", "InvariantViolation"]

#: Absolute slack for float accumulation across thousands of records.
_TOL = 1e-6

#: Attempt outcomes the engine may report.
_OUTCOMES = frozenset({"ok", "transient", "crash", "cascade", "cancelled", "unserved"})
#: Outcomes after which a retry (a further attempt) is legal.
_RETRYABLE = frozenset({"transient", "crash", "cascade"})

#: Fault-log pairs whose restores must never outnumber their onsets.
_PAIRED_FAULT_KINDS = (("gray", "gray-restore"), ("cold-start", "warmed"))


class InvariantViolation(AssertionError):
    """A simulation conservation law was broken."""


class InvariantChecker:
    """Event ledger + end-of-run reconciliation for one simulation."""

    def __init__(self) -> None:
        self._last_time = 0.0
        self._arrived: Dict[str, float] = {}
        self._finalized: Dict[str, bool] = {}
        self._shed: Set[str] = set()
        self._started: Dict[Tuple[str, str], int] = {}
        self._closed: Dict[Tuple[str, str], int] = {}
        self._last_outcome: Dict[Tuple[str, str], str] = {}
        self._ok_seconds: Dict[Tuple[str, str], float] = {}
        self._retry_denied: Set[str] = set()
        self._denials = 0
        self._busy_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # ledger hooks (called by the engine, in event order)
    # ------------------------------------------------------------------
    def tick(self, t: float) -> None:
        """Record a clock observation; the virtual clock must not rewind."""
        if t < self._last_time - 1e-12:
            raise InvariantViolation(
                f"virtual clock went backwards: {self._last_time:.9f} -> "
                f"{t:.9f}"
            )
        self._last_time = max(self._last_time, t)

    def on_arrival(self, request_id: str, t: float) -> None:
        """One request arrived."""
        self.tick(t)
        if request_id in self._arrived:
            raise InvariantViolation(f"request {request_id!r} arrived twice")
        self._arrived[request_id] = t

    def on_attempt_started(
        self, request_id: str, version: str, attempt: int, t: float
    ) -> None:
        """A job attempt for one ``(request, version)`` leg began."""
        self.tick(t)
        key = (request_id, version)
        expected = self._started.get(key, 0) + 1
        if attempt != expected:
            raise InvariantViolation(
                f"{key}: attempt {attempt} started but {expected} expected "
                "(attempt numbers must be contiguous from 1)"
            )
        if attempt > 1:
            open_attempts = self._started.get(key, 0) - self._closed.get(key, 0)
            if open_attempts != 0:
                raise InvariantViolation(
                    f"{key}: retry started while attempt still open"
                )
            last = self._last_outcome.get(key)
            if last not in _RETRYABLE:
                raise InvariantViolation(
                    f"{key}: retry followed outcome {last!r}, not a failure"
                )
        self._started[key] = attempt

    def on_batch_started(self, node_id: str, start: float, finish: float) -> None:
        """A node started a job or batch at ``start`` that ends at ``finish``."""
        self.tick(start)
        busy_until = self._busy_until.get(node_id, start)
        if start < busy_until:
            raise InvariantViolation(
                f"node {node_id!r} started work at {start:.9f} while its "
                f"previous batch runs until {busy_until:.9f}"
            )
        self._busy_until[node_id] = finish

    def on_batch_aborted(self, node_id: str, t: float) -> None:
        """A crash ended the node's running batch at ``t``."""
        self.tick(t)
        self._busy_until[node_id] = t

    def on_attempt_finished(
        self,
        request_id: str,
        version: str,
        attempt: int,
        t: float,
        outcome: str,
        *,
        seconds: float = 0.0,
    ) -> None:
        """A started attempt closed with one of the known outcomes, while
        its request is still unresolved."""
        self.tick(t)
        if outcome not in _OUTCOMES:
            raise InvariantViolation(f"unknown attempt outcome {outcome!r}")
        key = (request_id, version)
        if request_id in self._finalized:
            raise InvariantViolation(
                f"{key}: attempt {attempt} closed ({outcome!r}) after its "
                "request was finalized"
            )
        if attempt != self._started.get(key, 0):
            raise InvariantViolation(
                f"{key}: attempt {attempt} closed but "
                f"{self._started.get(key, 0)} was the last started"
            )
        closed = self._closed.get(key, 0) + 1
        if closed > self._started.get(key, 0):
            raise InvariantViolation(
                f"{key}: more attempts closed than started"
            )
        self._closed[key] = closed
        self._last_outcome[key] = outcome
        if outcome == "ok":
            self._ok_seconds[key] = self._ok_seconds.get(key, 0.0) + seconds

    def on_retry_denied(self, request_id: str, version: str, t: float) -> None:
        """A retry budget refused the retry the policy wanted to schedule."""
        self.tick(t)
        key = (request_id, version)
        if self._started.get(key, 0) < 1:
            raise InvariantViolation(
                f"{key}: retry denied before any attempt started"
            )
        self._retry_denied.add(request_id)
        self._denials += 1

    def on_shed(self, request_id: str, t: float) -> None:
        """Admission control dropped one arrived request unserved.

        A shed is a terminal resolution of its own kind: it must follow
        an arrival, must not follow (or precede) any job attempt, and
        the request must never also complete or fail.
        """
        self.tick(t)
        if request_id not in self._arrived:
            raise InvariantViolation(
                f"request {request_id!r} shed but never arrived"
            )
        if request_id in self._finalized or request_id in self._shed:
            raise InvariantViolation(
                f"request {request_id!r} shed after already resolving"
            )
        started = [key for key in self._started if key[0] == request_id]
        if started:
            raise InvariantViolation(
                f"request {request_id!r} shed after starting attempts "
                f"{started}; admission happens before any job runs"
            )
        self._shed.add(request_id)

    def on_finalized(self, request_id: str, t: float, *, failed: bool) -> None:
        """One request resolved (answered or terminally failed)."""
        self.tick(t)
        if request_id not in self._arrived:
            raise InvariantViolation(
                f"request {request_id!r} finalized but never arrived"
            )
        if request_id in self._finalized or request_id in self._shed:
            raise InvariantViolation(
                f"request {request_id!r} finalized twice"
            )
        self._finalized[request_id] = failed

    # ------------------------------------------------------------------
    # end-of-run reconciliation
    # ------------------------------------------------------------------
    def verify(self, report, cluster, retry: Optional[object] = None) -> None:
        """Reconcile the ledger against the report and the cluster's books.

        Args:
            report: The emitted
                :class:`~repro.service.simulation.report.LoadTestReport`.
            cluster: The simulated
                :class:`~repro.service.cluster.ClusterDeployment`.
            retry: The engine's
                :class:`~repro.service.simulation.faults.RetryPolicy`, for
                the ``max_attempts`` bound (``None`` skips that check).

        Raises:
            InvariantViolation: On the first broken law.
        """
        # 1. conservation of requests: submitted = completed + failed + shed
        resolved = set(self._finalized) | self._shed
        missing = set(self._arrived) - resolved
        if missing:
            raise InvariantViolation(
                f"{len(missing)} request(s) arrived but never resolved, "
                f"e.g. {sorted(missing)[:3]}"
            )
        extra = resolved - set(self._arrived)
        if extra:
            raise InvariantViolation(
                f"request(s) resolved without arriving: {sorted(extra)[:3]}"
            )
        reported = {r.request_id for r in report.records}
        if reported != resolved:
            raise InvariantViolation(
                "report records do not match the resolved-request ledger"
            )
        if len(report.records) != len(reported):
            raise InvariantViolation("duplicate request ids in the report")

        # 2. conservation of attempts
        for key, started in self._started.items():
            closed = self._closed.get(key, 0)
            if closed != started:
                raise InvariantViolation(
                    f"{key}: {started} attempt(s) started but {closed} closed"
                )
            if retry is not None and started > retry.max_attempts:
                raise InvariantViolation(
                    f"{key}: {started} attempts exceed "
                    f"max_attempts={retry.max_attempts}"
                )

        # 6. retry budgets bind
        denied_in_report = {
            record.request_id
            for record in report.records
            if getattr(record, "retry_denied", False)
        }
        if denied_in_report != self._retry_denied:
            raise InvariantViolation(
                "retry_denied flags in the report disagree with the "
                f"ledger ({len(denied_in_report)} flagged vs "
                f"{len(self._retry_denied)} denied)"
            )
        budget = getattr(retry, "retry_budget", None)
        total_budget = getattr(retry, "max_total_retries", None)
        if budget is not None or total_budget is not None:
            total_retries = 0
            for record in report.records:
                retries = getattr(record, "retries", 0)
                total_retries += retries
                if budget is not None and retries > budget:
                    raise InvariantViolation(
                        f"record {record.request_id!r} drove {retries} "
                        f"retries past retry_budget={budget}"
                    )
            if total_budget is not None and total_retries > total_budget:
                raise InvariantViolation(
                    f"{total_retries} retries driven across the run exceed "
                    f"max_total_retries={total_budget}"
                )

        # 4. billing reconciliation (per record, then per version)
        for record in report.records:
            if getattr(record, "shed", False) != (
                record.request_id in self._shed
            ):
                raise InvariantViolation(
                    f"record {record.request_id!r}: shed flag disagrees "
                    "with the ledger"
                )
            if record.request_id in self._shed:
                if record.failed or record.node_seconds or record.invocation_cost:
                    raise InvariantViolation(
                        f"shed record {record.request_id!r} must carry no "
                        "failure flag, node-seconds or billed cost"
                    )
                continue
            if record.failed != self._finalized[record.request_id]:
                raise InvariantViolation(
                    f"record {record.request_id!r}: failed flag disagrees "
                    "with the ledger"
                )
            if record.finished_s < record.arrival_s - 1e-12:
                raise InvariantViolation(
                    f"record {record.request_id!r} finished before it arrived"
                )
            for version, seconds in record.node_seconds.items():
                if seconds < -1e-12:
                    raise InvariantViolation(
                        f"record {record.request_id!r} billed negative "
                        f"node-seconds for {version!r}"
                    )
                earned = self._ok_seconds.get(
                    (record.request_id, version), 0.0
                )
                if seconds > earned + _TOL:
                    raise InvariantViolation(
                        f"record {record.request_id!r} billed {seconds:.9f}s "
                        f"of {version!r} but successful completions only "
                        f"reported {earned:.9f}s"
                    )
        billed = report.total_node_seconds
        worked = cluster.total_busy_seconds()
        for version, seconds in billed.items():
            if seconds > worked.get(version, 0.0) + _TOL:
                raise InvariantViolation(
                    f"version {version!r}: billed {seconds:.9f} node-seconds "
                    f"but only {worked.get(version, 0.0):.9f} were worked"
                )

        # 5. drained means drained
        pending = {v: d for v, d in cluster.queue_depths().items() if d}
        if pending:
            raise InvariantViolation(
                f"report emitted with work still queued: {pending}"
            )

        # 7. degradations recover at most once (fault-log pairing)
        for onset_kind, restore_kind in _PAIRED_FAULT_KINDS:
            onsets: Dict[str, int] = {}
            restores: Dict[str, int] = {}
            for entry in getattr(report, "fault_log", ()):
                if entry.kind == onset_kind:
                    onsets[entry.version] = onsets.get(entry.version, 0) + 1
                elif entry.kind == restore_kind:
                    restores[entry.version] = (
                        restores.get(entry.version, 0) + 1
                    )
            for version, count in restores.items():
                if count > onsets.get(version, 0):
                    raise InvariantViolation(
                        f"version {version!r}: {count} {restore_kind!r} "
                        f"entries but only {onsets.get(version, 0)} "
                        f"{onset_kind!r} onset(s)"
                    )
