"""Service nodes and the service-version protocol they host.

A *service version* is one concrete model configuration (an ASR beam-search
configuration, a CNN, or a calibrated profile) that knows how to process a
request payload and report what it cost.  A *service node* is one rented
machine running one service version; the node applies its instance type's
speed factor to the version's baseline latency, which is how the same
version gets cheaper-but-slower or pricier-but-faster depending on where it
is deployed.

Nodes expose an async-style **submit/drain** interface: work is enqueued
onto a per-node FIFO queue with :meth:`ServiceNode.submit` and executed —
optionally in batches — by :meth:`ServiceNode.drain` or, one batch at a
time, by :meth:`ServiceNode.pop_batch` / :meth:`ServiceNode.execute_batch`.
The synchronous :meth:`ServiceNode.process` call is kept for the replay
path and delegates to the queueing primitives; the discrete-event engine in
:mod:`repro.service.simulation` applies the same queueing and batching
rules to shadow copies of the nodes under a virtual clock, so queueing
delay and batching become observable, and writes their books back.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Protocol, Tuple

from repro.service.instances import InstanceType

__all__ = [
    "CallableVersion",
    "NodeCompletion",
    "QueuedRequest",
    "ServiceNode",
    "ServiceVersion",
    "VersionResult",
]


@dataclass(frozen=True)
class VersionResult:
    """What one service version reports after processing one request.

    Attributes:
        request_id: Identifier of the processed request.
        version: Name of the service version that produced the result.
        output: The model output (transcript, class id, ...).
        error: The result's error against the reference (WER or top-1
            error); ``None`` when no reference is available.
        confidence: Model confidence in ``[0, 1]``.
        compute_seconds: Baseline node-seconds of compute on a
            speed-factor-1.0 node.
    """

    request_id: str
    version: str
    output: Any
    error: Optional[float]
    confidence: float
    compute_seconds: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if self.compute_seconds < 0.0:
            raise ValueError("compute_seconds must be non-negative")


class ServiceVersion(Protocol):
    """Protocol every hostable model version implements."""

    name: str

    def handle(self, request_id: str, payload: Any) -> VersionResult:
        """Process one request payload and report the outcome."""
        ...


class CallableVersion:
    """Adapts a plain callable into a :class:`ServiceVersion`.

    Args:
        name: Version name.
        handler: Callable ``(request_id, payload) -> VersionResult``.
    """

    def __init__(
        self, name: str, handler: Callable[[str, Any], VersionResult]
    ) -> None:
        self.name = name
        self._handler = handler

    def handle(self, request_id: str, payload: Any) -> VersionResult:
        """Delegate to the wrapped callable."""
        result = self._handler(request_id, payload)
        if result.version != self.name:
            raise ValueError(
                f"handler for version {self.name!r} returned a result labelled "
                f"{result.version!r}"
            )
        return result


@dataclass(frozen=True)
class QueuedRequest:
    """One unit of work waiting in a node's FIFO queue.

    Attributes:
        request_id: Identifier of the queued request.
        payload: Opaque payload the node's version understands.
        enqueued_at: Virtual time the request joined the queue.
    """

    request_id: str
    payload: Any
    enqueued_at: float = 0.0


@dataclass(frozen=True)
class NodeCompletion:
    """One request's completion record after a node executed its batch.

    Attributes:
        result: The version's result for the request.
        service_time_s: Wall service time of the *batch* the request rode in
            (equal to :attr:`solo_time_s` for unbatched execution).
        solo_time_s: What the request would have taken alone on this node.
        started_at: Virtual time the batch started executing.
        finished_at: Virtual time the batch finished.
        batch_size: Number of requests in the batch.
    """

    result: VersionResult
    service_time_s: float
    solo_time_s: float
    started_at: float
    finished_at: float
    batch_size: int = 1


class ServiceNode:
    """One machine instance hosting one service version.

    Args:
        version: The hosted service version.
        instance_type: The machine type the node is rented on.
        node_id: Optional explicit node identifier (auto-generated
            otherwise).
    """

    _ids = itertools.count()

    def __init__(
        self,
        version: ServiceVersion,
        instance_type: InstanceType,
        *,
        node_id: Optional[str] = None,
    ) -> None:
        self.version = version
        self.instance_type = instance_type
        self.node_id = node_id or f"node_{next(self._ids):04d}"
        self._busy_seconds = 0.0
        self._requests_served = 0
        self._queue: Deque[QueuedRequest] = deque()
        #: Virtual time at which the node finishes its current work.
        self.busy_until = 0.0
        #: False once the node has crashed; a dead node must not be routed
        #: to (the load balancer filters it out) or execute work.
        self.alive = True
        #: Fault-injection multiplier on the node's effective speed; a
        #: straggler runs with ``speed_scale < 1``.
        self._speed_scale = 1.0

    # ------------------------------------------------------------------
    # health and degradation (fault injection)
    # ------------------------------------------------------------------

    def set_speed_scale(self, scale: float) -> None:
        """Degrade (or restore) the node's speed by a multiplier.

        Applies to batches started afterwards; a batch already running
        keeps its finish time.
        """
        if scale <= 0.0:
            raise ValueError("speed scale must be positive")
        self._speed_scale = scale

    @property
    def effective_speed_factor(self) -> float:
        """Instance speed factor degraded by the current slowdown."""
        return self.instance_type.speed_factor * self._speed_scale

    def kill(self, *, now: float, aborted_requests: int = 0) -> None:
        """Crash the node at virtual time ``now``.

        Any work scheduled to finish after ``now`` is aborted: the busy
        time not yet elapsed is refunded (the machine stops billing the
        moment it dies) and the aborted requests leave the served counter.
        The caller (the simulation engine) is responsible for re-driving
        the aborted work elsewhere; a dead node refuses new work.
        """
        self.alive = False
        if self.busy_until > now:
            self._busy_seconds -= self.busy_until - now
            self.busy_until = now
        self._requests_served -= aborted_requests

    # ------------------------------------------------------------------
    # queueing interface (consumed by the replay path and the simulator)
    # ------------------------------------------------------------------
    def submit(self, request_id: str, payload: Any, *, now: float = 0.0) -> None:
        """Enqueue one request on the node's FIFO queue.

        Raises:
            RuntimeError: If the node has crashed.
        """
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is dead")
        self._queue.append(QueuedRequest(request_id, payload, enqueued_at=now))

    @property
    def queue_depth(self) -> int:
        """Number of requests waiting in the queue (excluding running work)."""
        return len(self._queue)

    def pop_batch(self, max_size: int = 1) -> List[QueuedRequest]:
        """Dequeue up to ``max_size`` requests in FIFO order."""
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        batch: List[QueuedRequest] = []
        while self._queue and len(batch) < max_size:
            batch.append(self._queue.popleft())
        return batch

    def execute_batch(
        self,
        batch: List[QueuedRequest],
        *,
        now: float = 0.0,
        batching=None,
    ) -> List[NodeCompletion]:
        """Execute a popped batch, advancing the node's virtual clock.

        The batch starts at ``max(now, busy_until)``; its wall service time
        is the slowest member's solo time for unbatched execution, or the
        sublinear batch model of ``batching`` (a
        :class:`~repro.service.simulation.batching.BatchingConfig`) when
        given.  Busy time and request counters accumulate as in
        :meth:`process`.

        Args:
            batch: Requests popped with :meth:`pop_batch`.
            now: Current virtual time.
            batching: Optional batching config supplying the batch latency
                model.
        """
        if not batch:
            raise ValueError("cannot execute an empty batch")
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is dead")
        results = [
            self.version.handle(item.request_id, item.payload) for item in batch
        ]
        solo_times = [
            result.compute_seconds / self.effective_speed_factor
            for result in results
        ]
        if batching is not None and len(batch) > 1:
            wall = batching.batch_service_time(solo_times)
        else:
            wall = max(solo_times)
        start = max(now, self.busy_until)
        finish = start + wall
        self.busy_until = finish
        self._busy_seconds += wall
        self._requests_served += len(batch)
        return [
            NodeCompletion(
                result=result,
                service_time_s=wall,
                solo_time_s=solo,
                started_at=start,
                finished_at=finish,
                batch_size=len(batch),
            )
            for result, solo in zip(results, solo_times)
        ]

    def drain(self, *, now: float = 0.0, batching=None) -> List[NodeCompletion]:
        """Execute everything queued, one FIFO batch after another.

        This is the replay-path counterpart of the event engine's paced
        execution: all queued work runs back to back in virtual time.

        Args:
            now: Virtual time draining starts.
            batching: Optional batching config; without it every request
                runs alone.
        """
        completions: List[NodeCompletion] = []
        max_size = batching.max_batch_size if batching is not None else 1
        while self._queue:
            batch = self.pop_batch(max_size)
            completions.extend(
                self.execute_batch(batch, now=now, batching=batching)
            )
        return completions

    # ------------------------------------------------------------------
    # synchronous replay interface
    # ------------------------------------------------------------------
    def process(self, request_id: str, payload: Any) -> Tuple[VersionResult, float]:
        """Process a request and return ``(result, wall_latency_s)``.

        The wall latency is the version's baseline compute divided by the
        node's speed factor; the node also accumulates busy time so a
        deployment can report utilisation and IaaS spend.  Internally this
        delegates to :meth:`submit` / :meth:`drain`, so replayed and
        simulated requests share one execution path.

        Raises:
            RuntimeError: If work is already queued on the node — the
                synchronous path must not silently execute and discard
                someone else's pending requests; drain the queue first.
        """
        if self._queue:
            raise RuntimeError(
                f"node {self.node_id} has {len(self._queue)} queued "
                "request(s); drain() them before calling process()"
            )
        self.submit(request_id, payload, now=self.busy_until)
        completion = self.drain(now=self.busy_until)[-1]
        return completion.result, completion.service_time_s

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        """Total node-seconds spent processing so far."""
        return self._busy_seconds

    @property
    def requests_served(self) -> int:
        """Number of requests this node has processed."""
        return self._requests_served

    @property
    def accumulated_cost(self) -> float:
        """IaaS cost of the node time consumed so far."""
        return self._busy_seconds * self.instance_type.price_per_second
