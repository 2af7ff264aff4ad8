"""The scalar event loop: ``run_columnar``'s bit-identical reference.

The serving simulator's first engine, kept here as the test suite's
oracle: a general discrete-event machine in which every request is an
:class:`_InFlight` object, every event a closure on an
:class:`~oracle.events.EventLoop`, every completion a
:class:`~repro.service.node.NodeCompletion` and every finalized request
a :class:`~repro.service.simulation.report.RequestRecord`.
:class:`ScalarLoop` drains one :class:`ServingSimulator`'s submissions
on the real cluster with the same arguments and to the same report as
:func:`~repro.service.simulation.columnar.run_columnar`; the one seam
that runs it is ``oracle/scalar.py::scalar_loop()``.

Ensemble semantics under the virtual clock mirror the replay policies in
:mod:`repro.core.policies`:

* ``single`` — one job; the response is ready when it finishes.
* ``seq`` — the fast job runs first; on low confidence an accurate job is
  enqueued *at the fast job's finish time* and the response waits for it.
* ``conc`` — fast and accurate jobs are enqueued at arrival; a confident
  fast result answers immediately (the accurate job still burns node time),
  otherwise the response waits for both.
* ``et`` — like ``conc``, but when the fast result is accepted the
  accurate job is cancelled: a still-queued job is removed outright (no
  cost), while a job that already started runs on, its billed node-seconds
  capped at the fast job's solo service time (the replay model's bound).

Degraded-mode scenarios inject a timed fault schedule
(:mod:`repro.service.simulation.faults`) on the same clock:

* a **node crash** evicts the node, migrates its queued work onto
  surviving nodes (same attempt — the job never started), aborts its
  running batch (those attempts failed; the machine time until the crash
  stays on the IaaS books) and optionally schedules a replacement node;
* a **straggler** degrades one node's effective speed for a window;
* a **transient-fault window** makes completions fail with a fixed
  probability, decided by the simulator's ``CompletionFaults``.

Failed attempts are re-driven under a
:class:`~repro.service.simulation.faults.RetryPolicy` (with backoff, onto
live nodes only); once a leg's attempts are exhausted the request fails
terminally — unless another leg can still answer: a confident fast result
makes an accurate-leg loss harmless, and under ``conc``/``et`` a live
accurate job answers for a dead fast leg (degraded fallback, billed
accurate-only).  When a whole pool is dead, its jobs park in the loop
until capacity returns (a recovery or an autoscaler scale-up); jobs still
parked when the event loop drains resolve with a confident fast answer
when one is in hand, and as failed requests otherwise.  A request that
fails is not billed.

A control plane is consulted per arrival (``admit``: shed or
force-degrade), fed each finalized record (``observe``) and ticked every
``tick_interval_s`` (``on_tick``: a returned configuration is hot-swapped
in for later arrivals).

The queue operations only this loop performs on the real nodes, balancer
and cluster — cancelling a queued job, requeueing a migrated one, reading
a queue's head, enqueueing through the balancer and retiring an idle
node — are the functions below; the columnar loop does the same on its
shadow nodes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.configuration import EnsembleConfiguration
from repro.core.executor import (
    early_termination_cap,
    require_confidence_threshold,
    should_escalate,
)
from repro.service.cluster import ClusterDeployment
from repro.service.control.admission import AdmissionAction
from repro.service.load_balancer import LoadBalancer
from repro.service.node import NodeCompletion, QueuedRequest, ServiceNode
from repro.service.request import ServiceRequest
from repro.service.simulation.faults import (
    ColdStartWave,
    FaultLogEntry,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
)
from repro.service.simulation.report import LoadTestReport, RequestRecord

from oracle.events import Event, EventLoop

__all__ = [
    "ScalarLoop",
    "amortized_seconds",
    "balancer_remove_node",
    "balancer_submit",
    "cancel_queued",
    "cluster_remove_node",
    "cluster_submit",
    "oldest_enqueued_at",
    "requeue",
    "shed_record",
]


# ----------------------------------------------------------------------
# nodes, balancer and cluster: the queue operations of this loop alone
# ----------------------------------------------------------------------
def amortized_seconds(completion: NodeCompletion) -> float:
    """The request's share of its batch's node-seconds."""
    return completion.service_time_s / completion.batch_size


def oldest_enqueued_at(node: ServiceNode) -> Optional[float]:
    """Enqueue time of the request at the head of ``node``'s queue, if any."""
    return node._queue[0].enqueued_at if node._queue else None


def cancel_queued(node: ServiceNode, request_id: str) -> bool:
    """Remove a not-yet-started request from ``node``'s queue.

    Returns:
        ``True`` if the request was still queued and has been removed;
        ``False`` if it already started (or was never submitted there).
    """
    for item in node._queue:
        if item.request_id == request_id:
            node._queue.remove(item)
            return True
    return False


def requeue(node: ServiceNode, item: QueuedRequest) -> None:
    """Insert a previously dequeued request, preserving FIFO order.

    Used when work migrates between nodes: the item is placed by its
    original ``enqueued_at`` so the head of the queue stays the oldest
    request and flush deadlines remain correct.
    """
    queue = node._queue
    position = len(queue)
    for i, existing in enumerate(queue):
        if existing.enqueued_at > item.enqueued_at:
            position = i
            break
    queue.insert(position, item)


def balancer_submit(
    balancer: LoadBalancer,
    version: str,
    request_id: str,
    payload: Any,
    *,
    now: float = 0.0,
) -> ServiceNode:
    """Enqueue a request on the ``select_node`` node of ``version``;
    returns the node chosen."""
    node = balancer.select_node(version)
    node.submit(request_id, payload, now=now)
    return node


def cluster_submit(
    cluster: ClusterDeployment,
    version: str,
    request: ServiceRequest,
    *,
    now: float = 0.0,
) -> ServiceNode:
    """:func:`balancer_submit` for one :class:`ServiceRequest`."""
    return balancer_submit(
        cluster.load_balancer,
        version,
        request.request_id,
        request.payload,
        now=now,
    )


def balancer_remove_node(
    balancer: LoadBalancer, version: str, *, now: Optional[float] = None
) -> Optional[ServiceNode]:
    """Shrink a version's pool by one idle node.

    Args:
        version: Pool to shrink.
        now: Current virtual time, for the in-flight-work check; with
            ``None`` a node with an empty queue is idle whatever virtual
            timestamp its past work reached.

    Returns:
        The last idle node in pool order — an empty queue, and no batch
        still running at ``now`` when a clock is given — now removed, or
        ``None`` when every node is busy.

    Raises:
        ValueError: If removal would empty the pool.
    """
    pool = balancer._require_pool(version)
    if len(pool) <= 1:
        raise ValueError(f"cannot remove the last node of version {version!r}")
    for node in reversed(pool):
        if node.queue_depth == 0 and (now is None or node.busy_until <= now):
            pool.remove(node)
            return node
    return None


def cluster_remove_node(
    cluster: ClusterDeployment, version: str, *, now: Optional[float] = None
) -> Optional[ServiceNode]:
    """:func:`balancer_remove_node` on the cluster's balancer; the removed
    node's spend and busy time stay on the cluster's retired books."""
    node = balancer_remove_node(cluster.load_balancer, version, now=now)
    if node is not None:
        cluster._retire(version, node)
    return node


def shed_record(request: ServiceRequest, at_s: float) -> RequestRecord:
    """The record of an arrival admission control dropped at ``at_s``."""
    return RequestRecord(
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


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class _InFlight:
    """Mutable state of one request between arrival and response."""

    __slots__ = (
        "request",
        "kind",
        "arrival",
        "fast_version",
        "accurate_version",
        "threshold",
        "fast_completion",
        "accurate_completion",
        "escalated",
        "fast_failed",
        "accurate_failed",
        "fast_node",
        "accurate_node",
        "accurate_enqueued",
        "accurate_cancelled",
        "attempts",
        "leg_open",
        "retry_pending",
        "retries",
        "retries_planned",
        "retry_denied",
        "degraded",
    )

    def __init__(
        self, request: ServiceRequest, configuration: EnsembleConfiguration
    ) -> None:
        self.request = request
        self.kind = configuration.kind
        self.arrival = 0.0
        policy = configuration.policy
        if self.kind == "single":
            self.fast_version = policy.versions[0]
            self.accurate_version = None
            self.threshold = 0.0
        else:
            self.fast_version = policy.fast_version
            self.accurate_version = policy.accurate_version
            # A two-version policy without a threshold is a configuration
            # error, not a hidden 0.5 default (PolicyConfigurationError).
            self.threshold = require_confidence_threshold(policy)
        self.fast_completion: Optional[NodeCompletion] = None
        self.accurate_completion: Optional[NodeCompletion] = None
        self.escalated: Optional[bool] = None
        #: True once the fast leg failed terminally but the accurate leg
        #: can still answer (conc/et degraded fallback).
        self.fast_failed = False
        #: True once the accurate leg failed terminally while the fast
        #: job was still in flight; the fast confidence gate decides the
        #: outcome when it lands.
        self.accurate_failed = False
        self.fast_node: Optional[ServiceNode] = None
        self.accurate_node: Optional[ServiceNode] = None
        self.accurate_enqueued = False
        self.accurate_cancelled = False
        #: Job attempts started so far, per version leg.
        self.attempts: Dict[str, int] = {}
        #: Whether the leg currently has an attempt in flight (enqueued,
        #: parked or running) that has not been closed yet.
        self.leg_open: Dict[str, bool] = {}
        #: Whether a retry for the leg is waiting out its backoff.  A leg
        #: in backoff has no open attempt but is still viable — it must
        #: not be mistaken for a dead leg, and early termination can
        #: cancel the pending retry outright.
        self.retry_pending: Dict[str, bool] = {}
        #: Attempts re-driven after a failure (for the request record).
        self.retries = 0
        #: Retries *scheduled* (a superset of fired ones: a backoff that
        #: gets cancelled is planned but never fires) — what the
        #: per-request ``retry_budget`` meters.
        self.retries_planned = 0
        #: True once a retry this request wanted was denied by a budget
        #: (per-request, in-flight cap, or run-wide).
        self.retry_denied = False
        #: True when admission control downgraded the request to the
        #: fast tier instead of the configuration routing planned.
        self.degraded = False

    def leg_viable(self, version: str) -> bool:
        """Whether the leg can still produce a result (open or retrying)."""
        return bool(
            self.leg_open.get(version, False)
            or self.retry_pending.get(version, False)
        )


class _RunningBatch:
    """One batch executing on a node, abortable by a crash."""

    __slots__ = ("node", "event", "items", "completions")

    def __init__(
        self,
        node: ServiceNode,
        event: Event,
        items: List[QueuedRequest],
        completions: List[NodeCompletion],
    ) -> None:
        self.node = node
        self.event = event
        self.items = items
        self.completions = completions


class ScalarLoop:
    """One drain of a ``ServingSimulator`` on the scalar event loop.

    It reads the simulator's submission store and settings — the active
    fixed configuration through ``sim`` itself, since a control plane's
    hot swap rebinds it — and keeps the state no other code reads: the
    virtual clock, the requests in flight, the records, flush timers,
    running batches, parked jobs, the fault log and the run-wide retry
    counters.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        # The simulator's run settings, never rebound during a drain.
        self.cluster = sim.cluster
        self.control = sim.control
        self._store = sim._store
        self._batching = sim._batching
        self._scaling = sim._scaling
        self._retry = sim._retry
        self._faults = sim._faults
        self._failures = sim._failures
        self._releases = sim._releases
        self._check = sim._check
        self._trace = sim._trace
        self._observe_node = sim._observe_node
        # This loop's own state.
        self._loop = EventLoop()
        self._inflight: Dict[str, _InFlight] = {}
        self._records: List[RequestRecord] = []
        self._flush_events: Dict[str, Event] = {}
        self._running: Dict[str, _RunningBatch] = {}
        self._parked: Dict[str, List[QueuedRequest]] = {}
        self._remaining = len(sim._store.ids)
        self._fault_log: List[FaultLogEntry] = []
        self._cold_waves = [
            fault for fault in self._faults if isinstance(fault, ColdStartWave)
        ]
        #: node_id -> confidence multiplier while gray or warming up.
        self._deflate: Dict[str, float] = {}
        self._total_retries_planned = 0
        self._inflight_retries = 0

    def run(
        self, configurations, codes, replay_rows, *, max_events: int
    ) -> LoadTestReport:
        """Drain the simulator: ``run_columnar``'s arguments, after the
        simulator, and the same report."""
        # The store in submission order, a ServiceRequest built per row; a
        # fixed configuration is read at arrival.
        store = self._store
        # Fault onsets, then herd releases, then the arrivals, as the
        # columnar loop's onset stream orders them.
        self._schedule_faults()
        for entry in self._releases:
            self._log_at(entry, "fault-herd")
        for index, request_id in enumerate(store.ids):
            request = ServiceRequest(
                request_id=request_id,
                payload=store.payloads[index],
                tolerance=store.tolerances[index],
                objective=store.objectives[index],
            )
            routed = (
                None
                if self.sim._configuration is not None
                else configurations[codes[index] if codes else 0]
            )
            self._loop.schedule_at(
                store.times[index],
                lambda r=request, c=routed: self._on_arrival(r, c),
                kind="arrival",
            )
        if self._scaling is not None:
            self._loop.schedule(
                self._scaling.interval, self._on_autoscale_tick, kind="autoscale"
            )
        if self.control is not None:
            self._loop.schedule(
                self.control.tick_interval_s,
                self._on_control_tick,
                kind="control",
            )
        self._loop.run(max_events=max_events)
        stuck = sorted({event.kind for event in self._loop.pending()})
        if stuck:
            raise RuntimeError(
                f"event loop hit its {max_events}-event valve with {stuck} pending"
            )
        if self._remaining and self._inflight and self._faults:
            # At loop-empty every queued job has executed and every retry
            # has fired, so what remains is parked behind pools whose
            # capacity never recovered: those jobs are dropped, unserved.
            # A request that already holds a confident fast answer
            # responds with it (the parked accurate leg was only ever a
            # cost commitment); everything else resolves as failed.
            for state in list(self._inflight.values()):
                request_id = state.request.request_id
                for version in (state.fast_version, state.accurate_version):
                    dropped = state.leg_open.get(
                        version, False
                    ) and self._cancel_parked(version, request_id)
                    if dropped and self._check is not None:
                        self._check.on_attempt_finished(
                            request_id,
                            version,
                            state.attempts[version],
                            self._loop.now,
                            "unserved",
                        )
                if state.escalated is False and state.fast_completion is not None:
                    fast = state.fast_completion
                    self._finalize(
                        state,
                        end=fast.finished_at,
                        node_seconds={
                            state.fast_version: amortized_seconds(fast)
                        },
                    )
                else:
                    self._finalize_failed(state, end=self._loop.now)
        if self._remaining:
            raise RuntimeError(
                f"event loop drained with {self._remaining} requests unresolved"
            )
        report = LoadTestReport(
            records=self._records,
            scaling_events=list(self._scaling.autoscaler.events)
            if self._scaling is not None
            else [],
            final_pool_sizes=self.cluster.pool_sizes(),
            fault_log=list(self._fault_log),
            control_log=list(self.control.log)
            if self.control is not None
            else [],
            engine_used="legacy",
        )
        if self._check is not None:
            self._check.verify(report, self.cluster, self._retry)
        return report

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(
        self,
        request: ServiceRequest,
        routed: Optional[EnsembleConfiguration],
    ) -> None:
        if self._trace is not None:
            self._trace.on_arrival(request.request_id, self._loop.now)
        configuration = routed if routed is not None else self.sim._configuration
        degraded = False
        if self.control is not None:
            decision = self.control.admit(self._loop.now, planned=configuration)
            action = decision.action
            if action is AdmissionAction.SHED:
                if self._trace is not None:
                    self._trace.on_admission(
                        request.request_id,
                        "shed",
                        getattr(decision, "reason", "") or "",
                        self._loop.now,
                    )
                self._shed_request(request)
                return
            if action is AdmissionAction.DEGRADE and decision.configuration is not None:
                configuration = decision.configuration
                degraded = True
                if self._trace is not None:
                    self._trace.on_admission(
                        request.request_id,
                        "degrade",
                        configuration.config_id,
                        self._loop.now,
                    )
        state = _InFlight(request, configuration)
        state.degraded = degraded
        state.arrival = self._loop.now
        self._inflight[request.request_id] = state
        if self._check is not None:
            self._check.on_arrival(request.request_id, self._loop.now)
        state.fast_node = self._enqueue_attempt(state, state.fast_version)
        if state.kind in ("conc", "et"):
            state.accurate_node = self._enqueue_attempt(
                state, state.accurate_version
            )
            state.accurate_enqueued = True

    def _shed_request(self, request: ServiceRequest) -> None:
        """Resolve one arrival unserved: admission control dropped it."""
        now = self._loop.now
        if self._check is not None:
            self._check.on_arrival(request.request_id, now)
            self._check.on_shed(request.request_id, now)
        record = shed_record(request, now)
        self._records.append(record)
        self._remaining -= 1
        self._emit_record(record)

    def _emit_record(self, record: RequestRecord) -> None:
        """Publish one emitted record to the trace recorder and the plane."""
        now = self._loop.now
        if self._trace is not None:
            # Every terminal outcome funnels through here (completed,
            # failed, shed, parked resolution), so this is the single
            # point where a request's trace is built and collected.
            self._trace.on_finalized(record)
        if self.control is not None:
            self.control.observe(record, now)

    def _enqueue_attempt(
        self, state: _InFlight, version: str
    ) -> Optional[ServiceNode]:
        """Start one job attempt: enqueue on a live node, or park.

        Returns the node chosen, or ``None`` when the version's pool has
        no live node and the job parked in the engine until capacity
        returns.
        """
        now = self._loop.now
        attempt = state.attempts.get(version, 0) + 1
        state.attempts[version] = attempt
        state.leg_open[version] = True
        if self._check is not None:
            self._check.on_attempt_started(
                state.request.request_id, version, attempt, now
            )
        parked = self.cluster.load_balancer.live_pool_size(version) == 0
        if self._trace is not None:
            self._trace.on_attempt(
                state.request.request_id,
                version,
                "accurate" if version == state.accurate_version else "fast",
                attempt,
                now,
                parked=parked,
            )
        if parked:
            self._parked.setdefault(version, []).append(
                QueuedRequest(
                    state.request.request_id,
                    state.request.payload,
                    enqueued_at=now,
                )
            )
            return None
        node = cluster_submit(self.cluster, version, state.request, now=now)
        self._maybe_start(node)
        return node

    def _maybe_start(self, node: ServiceNode) -> None:
        """Start a batch on an idle node, or arm its flush timer."""
        now = self._loop.now
        if node.queue_depth == 0 or node.busy_until > now:
            # Busy nodes restart from their batch-completion event.
            return
        cfg = self._batching
        head_wait = now - (oldest_enqueued_at(node) or now)
        if (
            node.queue_depth >= cfg.max_batch_size
            or cfg.max_wait_s <= 0.0
            or head_wait >= cfg.max_wait_s - 1e-12
        ):
            self._start_batch(node)
        elif node.node_id not in self._flush_events:
            deadline = oldest_enqueued_at(node) + cfg.max_wait_s
            self._flush_events[node.node_id] = self._loop.schedule_at(
                deadline, lambda n=node: self._on_flush(n), kind="flush"
            )

    def _on_flush(self, node: ServiceNode) -> None:
        self._flush_events.pop(node.node_id, None)
        if node.queue_depth and node.busy_until <= self._loop.now:
            self._start_batch(node)

    def _start_batch(self, node: ServiceNode) -> None:
        pending = self._flush_events.pop(node.node_id, None)
        if pending is not None:
            pending.cancel()
        batch = node.pop_batch(self._batching.max_batch_size)
        completions = node.execute_batch(
            batch, now=self._loop.now, batching=self._batching
        )
        if self._check is not None:
            # Started now: execute_batch would queue a start on a busy
            # node behind its batch, which hides a double start.
            self._check.on_batch_started(
                node.node_id, self._loop.now, completions[0].finished_at
            )
        event = self._loop.schedule_at(
            completions[0].finished_at,
            lambda n=node, c=completions: self._on_batch_done(n, c),
            kind="batch-done",
        )
        self._running[node.node_id] = _RunningBatch(
            node, event, batch, completions
        )

    def _on_batch_done(
        self, node: ServiceNode, completions: List[NodeCompletion]
    ) -> None:
        # An event tied with this one (an arrival, a retry whose backoff
        # ends now) may have started the node's next batch: that batch
        # keeps the running slot a crash aborts.
        running = self._running.get(node.node_id)
        if running is not None and running.completions is completions:
            del self._running[node.node_id]
        factor = self._deflate.get(node.node_id)
        if factor is not None and factor < 1.0:
            # Gray / warming nodes silently lose answer quality: every
            # confidence they report is deflated, which shifts the tier
            # escalation gate — the "failure" shows up as extra
            # escalations and cost, never as an error.
            completions = [
                replace(
                    completion,
                    result=replace(
                        completion.result,
                        confidence=completion.result.confidence * factor,
                    ),
                )
                for completion in completions
            ]
            if self._trace is not None:
                for completion in completions:
                    self._trace.on_deflated(
                        completion.result.request_id,
                        node.node_id,
                        factor,
                        self._loop.now,
                    )
        if self._observe_node is not None:
            now = self._loop.now
            for completion in completions:
                self._observe_node(
                    node.node_id,
                    completion.result.version,
                    completion.service_time_s,
                    now,
                )
        for completion in completions:
            self._on_job_done(completion)
        self._maybe_start(node)

    def _on_job_done(self, completion: NodeCompletion) -> None:
        request_id = completion.result.request_id
        version = completion.result.version
        state = self._inflight[request_id]
        failure = self._failures.failure(
            version, completion.finished_at, self._pool_load
        )
        if failure is not None:
            self._attempt_failed(
                state, version, now=self._loop.now, reason=failure
            )
            return
        state.leg_open[version] = False
        if self._check is not None:
            self._check.on_attempt_finished(
                request_id,
                version,
                state.attempts.get(version, 0),
                completion.finished_at,
                "ok",
                seconds=amortized_seconds(completion),
            )
        if self._trace is not None:
            node = (
                state.accurate_node
                if version == state.accurate_version
                else state.fast_node
            )
            self._trace.on_attempt_done(
                request_id, version, completion.started_at, completion.finished_at,
                amortized_seconds(completion), completion.batch_size,
                node.node_id if node is not None else None,
            )
        if (
            state.accurate_version is not None
            and version == state.accurate_version
        ):
            state.accurate_completion = completion
        else:
            state.fast_completion = completion
        self._advance(state)

    # ------------------------------------------------------------------
    # fault schedule
    # ------------------------------------------------------------------
    def _schedule_faults(self) -> None:
        for fault, entry in zip(self._faults, self._failures.onset_entries):
            if isinstance(fault, NodeCrash):
                self._loop.schedule_at(
                    fault.at_s,
                    lambda f=fault: self._on_node_crash(f),
                    kind="fault-crash",
                )
            elif isinstance(fault, (NodeSlowdown, GrayFailure)):
                self._loop.schedule_at(
                    fault.at_s,
                    lambda f=fault: self._on_degrade(f),
                    kind="fault-degrade",
                )
            elif entry is not None:
                # A transient or storm window opens.
                self._log_at(entry, "fault-window")
            # CascadePolicy and ColdStartWave are run-long policies (they
            # react to crashes / capacity joins, not to a timestamp) and
            # ThunderingHerd acts on the arrival side in run(); none of
            # them schedules an onset event.

    def _log_at(self, entry: FaultLogEntry, kind: str) -> None:
        """Log ``entry`` when the clock reaches its time."""
        self._loop.schedule_at(
            entry.time_s, lambda: self._fault_log.append(entry), kind=kind
        )

    def _cold_wave_for(self, version: str) -> Optional[ColdStartWave]:
        for wave in self._cold_waves:
            if wave.covers(version):
                return wave
        return None

    def _pool_load(self, version: str) -> float:
        """Mean queued jobs per live node (parked jobs count as queued)."""
        pool = self.cluster.load_balancer.nodes_of(version)
        depth = sum(node.queue_depth for node in pool) + len(
            self._parked.get(version, ())
        )
        return depth / max(1, len(pool))

    def _on_node_crash(self, fault: NodeCrash) -> None:
        now = self._loop.now
        balancer = self.cluster.load_balancer
        node, skipped = fault.victim(balancer.nodes_of(fault.version), now)
        if node is None:
            self._fault_log.append(skipped)
            return
        pending = self._flush_events.pop(node.node_id, None)
        if pending is not None:
            pending.cancel()
        running = self._running.pop(node.node_id, None)
        aborted: List[QueuedRequest] = []
        if running is not None:
            running.event.cancel()
            aborted = running.items
            node.kill(now=now, aborted_requests=len(aborted))
            if self._check is not None:
                self._check.on_batch_aborted(node.node_id, now)
        queued = self.cluster.kill_node(fault.version, node, now=now)
        if self._scaling is not None:
            self._scaling.rebase(fault.version, balancer.nodes_of(fault.version))
        self._fault_log.append(
            fault.crash_entry(now, node.node_id, len(aborted), len(queued))
        )
        # The death stresses the survivors: a cascade policy opens (or
        # extends) the pool's cascade window.
        cascade = self._failures.on_crash(fault.version, now)
        if cascade is not None:
            self._fault_log.append(cascade)
        # Queued work never started: it migrates, same attempt (parked
        # when the crash emptied the pool).
        for item in queued:
            state = self._inflight[item.request_id]
            if balancer.live_pool_size(fault.version) == 0:
                self._parked.setdefault(fault.version, []).append(item)
                self._note_leg_node(state, fault.version, None)
                if self._trace is not None:
                    self._trace.on_migrated(
                        item.request_id, fault.version, now, parked=True
                    )
                continue
            target = balancer.select_node(fault.version)
            requeue(target, item)
            self._note_leg_node(state, fault.version, target)
            if self._trace is not None:
                self._trace.on_migrated(
                    item.request_id, fault.version, now, parked=False
                )
            # The migrated item may be older than the head that armed the
            # node's flush deadline; re-arm from the current queue state.
            pending = self._flush_events.pop(target.node_id, None)
            if pending is not None:
                pending.cancel()
            self._maybe_start(target)
        # Running work died mid-execution: those attempts failed.
        for item in aborted:
            self._attempt_failed(
                self._inflight[item.request_id], fault.version, now=now, reason="crash"
            )
        if fault.recover_at_s is not None:
            self._loop.schedule_at(
                fault.recover_at_s,
                lambda f=fault: self._grow(f.version, f),
                kind="fault-recover",
            )

    def _grow(self, version: str, fault: Optional[NodeCrash] = None) -> None:
        """One node joins ``version``'s pool: ``fault``'s replacement
        (logged) or an autoscaler's.  Cold-start degradation applies
        before the work parked behind the pool lands on it, so its first
        batches run at warmup speed."""
        added = self.cluster.add_nodes(version, 1)
        if fault is not None:
            self._fault_log.append(
                fault.recover_entry(self._loop.now, added[0].node_id)
            )
        self._maybe_cold_start(version, added)
        self._on_capacity_added(version)

    def _on_degrade(self, fault: Union[NodeSlowdown, GrayFailure]) -> None:
        """A straggler or gray onset: the node slows down — and a gray
        node's answers lose confidence — until its restore fires."""
        now = self._loop.now
        pool = self.cluster.load_balancer.nodes_of(fault.version)
        node, skipped = fault.victim(pool, now)
        if node is None:
            self._fault_log.append(skipped)
            return
        node.set_speed_scale(fault.speed_factor)
        if isinstance(fault, GrayFailure):
            self._deflate[node.node_id] = fault.confidence_factor
        self._fault_log.append(
            fault.onset_entry(now, fault.version, node.node_id)
        )
        if fault.until_s is not None:
            self._loop.schedule_at(
                fault.until_s,
                lambda f=fault, n=node: self._on_restore(f, f.version, n),
                kind="fault-restore",
            )

    def _on_restore(
        self,
        fault: Union[NodeSlowdown, GrayFailure, ColdStartWave],
        version: str,
        node: ServiceNode,
    ) -> None:
        """A degradation ends: full speed again, and — unless it was a
        straggler's — confidences reported as measured."""
        if not isinstance(fault, NodeSlowdown):
            self._deflate.pop(node.node_id, None)
        if not node.alive:
            return  # the node crashed before it recovered
        node.set_speed_scale(1.0)
        self._fault_log.append(
            fault.restore_entry(self._loop.now, version, node.node_id)
        )

    def _maybe_cold_start(
        self, version: str, nodes: Sequence[ServiceNode]
    ) -> None:
        """Degrade nodes that just joined a pool covered by a cold wave."""
        wave = self._cold_wave_for(version)
        if wave is None or not nodes:
            return
        now = self._loop.now
        for node in nodes:
            node.set_speed_scale(wave.speed_factor)
            if wave.confidence_factor < 1.0:
                self._deflate[node.node_id] = wave.confidence_factor
            self._fault_log.append(wave.onset_entry(now, version, node.node_id))
            self._loop.schedule_at(
                now + wave.warmup_s,
                lambda v=version, n=node, w=wave: self._on_restore(w, v, n),
                kind="fault-warmup",
            )

    def _note_leg_node(
        self, state: _InFlight, version: str, node: Optional[ServiceNode]
    ) -> None:
        if version == state.accurate_version:
            state.accurate_node = node
        else:
            state.fast_node = node

    def _on_capacity_added(self, version: str) -> None:
        """Flush jobs parked behind a dead pool onto the new capacity."""
        parked = self._parked.pop(version, None)
        if not parked:
            return
        balancer = self.cluster.load_balancer
        touched: Dict[str, ServiceNode] = {}
        for item in parked:
            node = balancer.select_node(version)
            requeue(node, item)
            self._note_leg_node(self._inflight[item.request_id], version, node)
            touched[node.node_id] = node
        for node in touched.values():
            pending = self._flush_events.pop(node.node_id, None)
            if pending is not None:
                pending.cancel()
            self._maybe_start(node)

    # ------------------------------------------------------------------
    # retries and terminal failure
    # ------------------------------------------------------------------
    def _attempt_failed(
        self, state: _InFlight, version: str, *, now: float, reason: str
    ) -> None:
        request_id = state.request.request_id
        attempt = state.attempts.get(version, 0)
        state.leg_open[version] = False
        if self._check is not None:
            self._check.on_attempt_finished(
                request_id, version, attempt, now, reason
            )
        if self._trace is not None:
            self._trace.on_attempt_failed(request_id, version, now, reason)
        if attempt < self._retry.max_attempts:
            if self._retry_budget_allows(state):
                state.retry_pending[version] = True
                state.retries_planned += 1
                self._total_retries_planned += 1
                self._inflight_retries += 1
                delay = self._retry.delay_before_retry(attempt)
                if self._trace is not None:
                    self._trace.on_retry_wait(
                        request_id, version, attempt, now, delay
                    )
                self._loop.schedule(
                    delay,
                    lambda r=request_id, v=version: self._on_retry(r, v),
                    kind="retry",
                )
                return
            # A budget denied the retry the policy would have scheduled:
            # record the denial and proceed exactly as if the leg's
            # attempts were exhausted (the degraded fallbacks below still
            # apply — a denied accurate retry is harmless when a confident
            # fast answer is in hand).
            state.retry_denied = True
            if self._check is not None:
                self._check.on_retry_denied(request_id, version, now)
            if self._trace is not None:
                self._trace.on_retry_denied(request_id, version, now)
        # Attempts exhausted.  A confident fast answer makes the loss of
        # the accurate leg harmless (conc/et bill the fast result anyway),
        # and symmetrically a lost fast leg is survivable while a
        # concurrent accurate job can still deliver the answer; only when
        # no leg can respond does the request fail.
        if (
            version == state.accurate_version
            and state.fast_completion is not None
            and state.escalated is False
        ):
            fast = state.fast_completion
            self._finalize(
                state,
                end=fast.finished_at,
                node_seconds={state.fast_version: amortized_seconds(fast)},
            )
            return
        if (
            version == state.accurate_version
            and state.kind in ("conc", "et")
            and state.fast_completion is None
            and state.leg_viable(state.fast_version)
        ):
            # The fast job is still in flight; its confidence gate decides
            # the outcome once it lands (a confident fast answer makes the
            # accurate loss harmless, an escalation fails).
            state.accurate_failed = True
            return
        if (
            version == state.fast_version
            and state.kind in ("conc", "et")
            and state.accurate_version is not None
            and not state.accurate_cancelled
            and (
                state.accurate_completion is not None
                or state.leg_viable(state.accurate_version)
            )
        ):
            state.fast_failed = True
            accurate = state.accurate_completion
            if accurate is not None:
                # The accurate result was already in hand, waiting for the
                # fast confidence gate; respond with it at the moment the
                # fast leg is known dead.
                self._finalize_accurate_only(state, end=now)
            return
        self._finalize_failed(state, end=now)

    def _retry_budget_allows(self, state: _InFlight) -> bool:
        """Whether the retry budgets permit scheduling one more retry."""
        policy = self._retry
        if (
            policy.retry_budget is not None
            and state.retries_planned >= policy.retry_budget
        ):
            return False
        if (
            policy.max_total_retries is not None
            and self._total_retries_planned >= policy.max_total_retries
        ):
            return False
        if (
            policy.max_inflight_retries is not None
            and self._inflight_retries >= policy.max_inflight_retries
        ):
            return False
        return True

    def _on_retry(self, request_id: str, version: str) -> None:
        # The backoff is over: whatever happens next, this retry no longer
        # occupies an in-flight slot (cancelled retries release theirs
        # here too — their schedule incremented the counter exactly once).
        self._inflight_retries -= 1
        state = self._inflight.get(request_id)
        if state is None or not state.retry_pending.get(version, False):
            return  # early termination cancelled it and answered the request
        state.retry_pending[version] = False
        # Counted when the attempt actually starts, so a backoff that
        # never fires (request resolved first) is not reported as a retry.
        state.retries += 1
        node = self._enqueue_attempt(state, version)
        self._note_leg_node(state, version, node)

    def _finalize_failed(self, state: _InFlight, *, end: float) -> None:
        """Resolve a request as terminally failed.

        Its legs are closed already: :meth:`_attempt_failed` closes the
        failing leg and fails a request only when no other leg is viable,
        and the end-of-run resolution drops the parked ones first.
        """
        fast = state.fast_completion
        record = RequestRecord(
            request_id=state.request.request_id,
            payload=state.request.payload,
            tier=state.request.tolerance,
            arrival_s=state.arrival,
            finished_s=end,
            response_time_s=end - state.arrival,
            queue_wait_s=(
                fast.started_at - state.arrival if fast is not None else 0.0
            ),
            versions_used=(),
            escalated=bool(state.escalated),
            invocation_cost=0.0,
            node_seconds={},
            failed=True,
            retries=state.retries,
            degraded=state.degraded,
            retry_denied=state.retry_denied,
        )
        self._records.append(record)
        if self._check is not None:
            self._check.on_finalized(
                state.request.request_id, self._loop.now, failed=True
            )
        del self._inflight[state.request.request_id]
        self._remaining -= 1
        self._emit_record(record)

    # ------------------------------------------------------------------
    # ensemble state machine
    # ------------------------------------------------------------------
    def _finalize_accurate_only(self, state: _InFlight, *, end: float) -> None:
        """Answer with the accurate result after the fast leg died."""
        accurate = state.accurate_completion
        self._finalize(
            state,
            end=max(end, accurate.finished_at),
            node_seconds={
                state.accurate_version: amortized_seconds(accurate)
            },
            lead=accurate,
        )

    def _advance(self, state: _InFlight) -> None:
        fast = state.fast_completion
        if state.fast_failed:
            # Degraded conc/et fallback: the fast leg is terminally gone;
            # the accurate completion alone answers the request.
            if state.accurate_completion is not None:
                self._finalize_accurate_only(state, end=self._loop.now)
            return
        if state.kind == "single":
            if fast is not None:
                self._finalize(
                    state,
                    end=fast.finished_at,
                    node_seconds={state.fast_version: amortized_seconds(fast)},
                )
            return

        if fast is not None and state.escalated is None:
            state.escalated = should_escalate(
                fast.result.confidence, state.threshold
            )
            if state.escalated and self._trace is not None:
                self._trace.on_escalated(
                    state.request.request_id, self._loop.now
                )

        if state.kind == "seq":
            self._advance_sequential(state)
        else:
            self._advance_concurrent(state)

    def _advance_sequential(self, state: _InFlight) -> None:
        fast = state.fast_completion
        if fast is None:
            return
        if state.escalated is False:
            self._finalize(
                state,
                end=fast.finished_at,
                node_seconds={state.fast_version: amortized_seconds(fast)},
            )
        elif not state.accurate_enqueued:
            state.accurate_enqueued = True
            state.accurate_node = self._enqueue_attempt(
                state, state.accurate_version
            )
        elif state.accurate_completion is not None:
            accurate = state.accurate_completion
            self._finalize(
                state,
                end=accurate.finished_at,
                node_seconds={
                    state.fast_version: amortized_seconds(fast),
                    state.accurate_version: amortized_seconds(accurate),
                },
            )

    def _advance_concurrent(self, state: _InFlight) -> None:
        fast = state.fast_completion
        accurate = state.accurate_completion
        if state.accurate_failed and fast is not None:
            # The accurate leg is terminally gone; the fast result alone
            # decides: confident -> answer with it, escalated -> fail.
            if state.escalated:
                self._finalize_failed(state, end=self._loop.now)
            else:
                self._finalize(
                    state,
                    end=fast.finished_at,
                    node_seconds={state.fast_version: amortized_seconds(fast)},
                )
            return
        if fast is None:
            # The accurate job finished first; hold until the fast job's
            # confidence decides the outcome.
            return
        if state.escalated:
            if accurate is None:
                return
            self._finalize(
                state,
                end=max(fast.finished_at, accurate.finished_at),
                node_seconds={
                    state.fast_version: amortized_seconds(fast),
                    state.accurate_version: amortized_seconds(accurate),
                },
            )
            return
        # Fast result accepted: respond at the fast finish.
        if state.kind == "et" and accurate is None and not state.accurate_cancelled:
            accurate_version = state.accurate_version
            request_id = state.request.request_id
            # A not-yet-started accurate job is cancelled at no cost,
            # wherever it is waiting: queued on a node, parked behind a
            # dead pool, or a retry still in backoff.
            cancelled_attempt = self._cancel_queued_job(
                state.accurate_node, request_id
            ) or self._cancel_parked(accurate_version, request_id)
            cancelled_retry = False
            if not cancelled_attempt and state.retry_pending.get(
                accurate_version, False
            ):
                state.retry_pending[accurate_version] = False
                cancelled_retry = True
            if cancelled_attempt or cancelled_retry:
                state.accurate_cancelled = True
                if cancelled_attempt:
                    state.leg_open[accurate_version] = False
                    if self._check is not None:
                        self._check.on_attempt_finished(
                            request_id,
                            accurate_version,
                            state.attempts.get(accurate_version, 0),
                            self._loop.now,
                            "cancelled",
                        )
                self._finalize(
                    state,
                    end=fast.finished_at,
                    node_seconds={state.fast_version: amortized_seconds(fast)},
                )
                return
            # Already running: let it finish and bill the bounded share.
        if accurate is None:
            return
        accurate_seconds = amortized_seconds(accurate)
        if state.kind == "et":
            accurate_seconds = early_termination_cap(
                accurate_seconds, fast.solo_time_s
            )
        self._finalize(
            state,
            end=fast.finished_at,
            node_seconds={
                state.fast_version: amortized_seconds(fast),
                state.accurate_version: accurate_seconds,
            },
        )

    def _cancel_parked(self, version: str, request_id: str) -> bool:
        """Drop a job waiting in the engine's dead-pool holding pen."""
        parked = self._parked.get(version)
        if not parked:
            return False
        for item in parked:
            if item.request_id == request_id:
                parked.remove(item)
                return True
        return False

    def _cancel_queued_job(
        self, node: Optional[ServiceNode], request_id: str
    ) -> bool:
        """Cancel a not-yet-started job, fixing up the node's flush timer.

        The cancelled job may have been the queue head whose enqueue time
        armed the pending flush deadline; firing that stale timer would
        start the surviving batch earlier than ``max_wait_s`` allows for
        the new head.  Cancel the timer and re-arm from the current queue
        state instead.
        """
        if node is None or not cancel_queued(node, request_id):
            return False
        pending = self._flush_events.pop(node.node_id, None)
        if pending is not None:
            pending.cancel()
        self._maybe_start(node)
        return True

    def _finalize(
        self,
        state: _InFlight,
        *,
        end: float,
        node_seconds: Dict[str, float],
        lead: Optional[NodeCompletion] = None,
    ) -> None:
        # The completion whose result answers the consumer: the explicit
        # lead (degraded accurate-only fallback), else the accurate result
        # for an escalated request, else the fast one.
        answer = lead
        if answer is None:
            if state.escalated and state.accurate_completion is not None:
                answer = state.accurate_completion
            else:
                answer = state.fast_completion
        lead = lead or state.fast_completion
        escalated = bool(state.escalated)
        cost = self.cluster.cost_of(node_seconds)
        record = RequestRecord(
            request_id=state.request.request_id,
            payload=state.request.payload,
            tier=state.request.tolerance,
            arrival_s=state.arrival,
            finished_s=end,
            response_time_s=end - state.arrival,
            queue_wait_s=lead.started_at - state.arrival,
            versions_used=tuple(node_seconds.keys()),
            escalated=escalated,
            invocation_cost=cost.invocation_cost,
            node_seconds=dict(node_seconds),
            failed=False,
            retries=state.retries,
            result=answer.result.output if answer is not None else None,
            confidence=(
                answer.result.confidence if answer is not None else None
            ),
            degraded=state.degraded,
            retry_denied=state.retry_denied,
        )
        self._records.append(record)
        if self._check is not None:
            self._check.on_finalized(
                state.request.request_id, self._loop.now, failed=False
            )
        del self._inflight[state.request.request_id]
        self._remaining -= 1
        self._emit_record(record)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _on_control_tick(self) -> None:
        swap = self.control.on_tick(self._loop.now)
        if swap is not None:
            self.sim._apply_configuration(swap)
            if self._trace is not None:
                self._trace.on_epoch(self._loop.now, swap.config_id)
        # Tick on only while something else can still happen: requests
        # parked behind a pool that never comes back hold no event, and
        # ticks alone would spin the clock to the valve.
        if self._remaining > 0 and next(self._loop.pending(), None) is not None:
            self._loop.schedule(
                self.control.tick_interval_s,
                self._on_control_tick,
                kind="control",
            )

    # ------------------------------------------------------------------
    # autoscaling
    # ------------------------------------------------------------------
    def _on_autoscale_tick(self) -> None:
        """Actuate what :class:`PoolScaling` decides; tick on while unresolved."""
        now = self._loop.now
        balancer = self.cluster.load_balancer
        self._scaling.tick(
            now,
            {version: balancer.nodes_of(version) for version in balancer.versions},
            self._parked,
            self._grow,
            lambda version: cluster_remove_node(self.cluster, version, now=now),
        )
        if self._remaining > 0:
            self._loop.schedule(
                self._scaling.interval, self._on_autoscale_tick, kind="autoscale"
            )
