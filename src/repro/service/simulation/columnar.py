"""The columnar loop: the serving simulator's one event loop.

Its reference is the *scalar loop*, the simulator's first engine, which
the test suite keeps as its oracle (``tests/oracle/scalar_loop.py``): a
general discrete-event machine in which every request is a
heap-allocated state object, every event a closure over an event
record, every completion a frozen ``NodeCompletion`` dataclass, and
every finalized request a ``RequestRecord`` priced through the full
``PricingModel`` call chain.  ``run_columnar`` executes a load test
over a measurement-replay cluster — one fixed configuration or a tier
router picking one per request, healthy or under any fault schedule,
open-loop or under a control plane, on static or autoscaled pools —
with the *same* event semantics but none of the object machinery:

* request state lives in parallel lists indexed by submission order
  (the simulator's submission store, read as it stands),
* the routing decision is request state too: the drain's pre-pass
  routes each distinct ``(tolerance, objective)`` once and groups the
  submissions by the configuration they got; the per-leg compute /
  confidence / escalates columns are composed one group at a time, and
  the event flow reads a per-request kind code and per-request leg
  pools.  A fixed-configuration run is the one-group case of the same
  loop,
* the event heap holds plain tuples — flush, single-job completion,
  batch completion, and *source* events; arrivals are a pre-sorted
  stream merged in without ever touching the heap,
* node state is a handful of slots on a shadow struct, written back to
  the real :class:`~repro.service.node.ServiceNode` objects at the end,
* per-request latency/billing/confidence columns are composed with
  vectorized numpy expressions after the loop, and the report is built
  from :class:`~repro.service.simulation.report.RecordColumns` without
  materializing a single ``RequestRecord`` up front.

**Faults are event sources.**  A ``NodeCrash``, ``NodeSlowdown``,
``GrayFailure`` or ``ColdStartWave`` fires between the vectorised
stretches and changes node or pool state: a crash kills a node
(refunding its unelapsed busy time), aborts its running batch, migrates
its queue and may open a cascade window; a recovery adds a real
replacement node to the pool and flushes the work parked behind a dead
pool onto it; a slowdown, a gray onset or a cold-start warmup rescales a
node's speed — and deflates the confidence it reports, which re-decides
escalation — until its restore fires.  Transient and storm windows
opening, and herds releasing, are log entries in the same stream.  Which
completions fail is asked of the simulator's ``CompletionFaults``, the
owner the scalar loop asks at the same point (first, as a completion
lands).  A failed attempt makes a faulted run follow the scalar loop's
whole per-request state machine instead of the fault-free deliveries:
retries with backoff under the ``RetryPolicy`` budgets, the degraded
fallbacks, parking and the end-of-run "unserved" resolution.  No
attempt outlives its request: a request fails terminally only once no
other leg can answer, early termination cancels an accurate leg only
before it starts (a running one is waited for), and resolving a
request touches none of its legs: the end-of-run resolution drops a
leg still parked ("unserved") before it resolves the request.
Pool membership changes on the real cluster as it happens, so node ids,
the retired books and ``final_pool_sizes`` end as the scalar loop leaves
them.

**The autoscaler is a tick source too**, armed before the control tick
and decided by the simulator's ``PoolScaling``, the owner the scalar
loop calls; this loop actuates: a recovery's ``grow`` scales up, and
retiring the last idle shadow node (the balancer's pick) scales down.

**An invariant checker takes the stepwise machine too.**  Each run
delivers its completions one way, chosen from what it holds: a run
whose every request is ``seq``, with no event source and no checker,
takes the delivery inlined into the loop; any other run with neither
takes ``deliver``; a run with an event source or a checker takes the
stepwise ``on_job_done``, which calls every checker hook where the
scalar loop does.  A checked run's digest is its unchecked run's.

**Bit-exactness is the contract, not an aspiration.**  Every arithmetic
expression here mirrors the scalar loop's float operations in
the same order (IEEE-754 makes ``a*b``/``a+b`` on float64 identical
whether issued from Python scalars or numpy element-wise kernels), event
ties break exactly as the scalar loop's monotonic sequence numbers break
them, and quirks such as the ``oldest_enqueued_at or now`` head-wait
guard are reproduced verbatim.  The scalar loop schedules fault onsets
first, then herd releases, then the arrivals, then every runtime event,
so the stream holds onsets, then releases, then arrivals (a stable sort
by time keeps that order within a tie) and wins every tie against the
heap.  The
differential test harness (``tests/service/test_engine_differential.py``)
holds the two engines to digest-for-digest equality over the canonical
scenarios and fuzzed scenario families.

**A control plane is an event source too.**  Its tick fires every
``tick_interval_s`` (with the scalar loop's tie order and stop rule):
the rows finalized since the last tick are folded into the plane's
telemetry in one call, then ``on_tick`` evaluates SLOs and may return a
hot swap, which changes the configuration of *later* arrivals only.  So
a closed-loop request resolves its configuration at its arrival event —
the active (or routed) configuration, then admission, which may shed it
(resolved unserved on the spot) or degrade it — and its kind and leg
columns are filled then; an open-loop run keeps the up-front gather.
Node service times feed the plane's gray-failure detection as batches
complete.

**A trace recorder is fed where the scalar loop feeds it.**  On a run
with a fault schedule or a control plane the stepwise loop calls its
hooks at the scalar loop's points, and each request's tree is built
from its record once the run ends; any other run hands it its columns.
What *neither* loop can serve (a repeated id, an unmeasured payload, a
bad threshold, fast == accurate, an undeployed or unrefillable empty
pool, a pool holding a dead node or a non-replay version) never reaches
this module: ``drain()`` refuses it with a typed error, and hands
``run_columnar`` the payload-to-row gather that refusal already
performed.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import List, Optional

import numpy as np

from repro.core.executor import require_confidence_threshold
from repro.service.simulation.faults import (
    ColdStartWave,
    FaultLogEntry,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
)
from repro.service.simulation.report import LoadTestReport, RecordColumns

__all__ = ["run_columnar"]

#: Heap events are ``(time, tag, node, info)`` with
#: ``tag = (seq << 2) | code``: packing the event code into the
#: monotonic sequence number keeps heap ordering identical to the scalar
#: loop's ``(time, seq)`` tuples (tags are unique and increase with
#: ``seq``) while saving one tuple slot per event in the hot loop.  A source
#: event carries its handler in the node slot and the handler's argument
#: in the info slot.
_FLUSH = 0
_ONE_DONE = 1
_BATCH_DONE = 2
_SOURCE = 3

#: Per-request kind codes of the event flow; the two kinds that enqueue
#: both legs at arrival sort last (``kind >= _CONC``).
_SINGLE, _SEQ, _CONC, _ET = range(4)
_KIND_CODES = {"single": _SINGLE, "seq": _SEQ, "conc": _CONC, "et": _ET}


class _ShadowNode:
    """Mutable per-node state of the columnar loop.

    Mirrors exactly the fields of :class:`~repro.service.node.ServiceNode`
    the event flow reads or writes; the accumulated values are written
    back to the real node when the run drains (or the node dies), so
    post-run introspection (utilization, billing reconciliation, the
    retired books, reuse of the cluster) sees what the scalar loop
    would have left behind.
    """

    __slots__ = (
        "real",
        "queue",
        "busy_until",
        "busy_seconds",
        "served",
        "factor",
        "flush_seq",
        "alive",
        "deflate",
    )

    def __init__(self, real) -> None:
        self.real = real
        #: Queue entries are ``(submission_index, leg, enqueued_at)``.
        self.queue = deque()
        self.busy_until = 0.0
        self.busy_seconds = real.busy_seconds
        self.served = real.requests_served
        self.factor = real.effective_speed_factor
        #: Sequence number of the armed flush event, ``-1`` when none.
        #: Cancellation is lazy, as in the scalar loop: a popped flush
        #: whose sequence number no longer matches is a stale timer.
        self.flush_seq = -1
        self.alive = True
        #: Multiplier on every confidence the node reports while gray or
        #: warming up (``None``: reported as measured).
        self.deflate = None

    @property
    def queue_depth(self) -> int:
        """:attr:`ServiceNode.queue_depth`, as the autoscaler reads it."""
        return len(self.queue)

    def write_back(self) -> None:
        real = self.real
        real.busy_until = self.busy_until
        real._busy_seconds = self.busy_seconds
        real._requests_served = self.served

    def set_speed_scale(self, scale: float) -> None:
        """:meth:`ServiceNode.set_speed_scale`, on both nodes."""
        self.real.set_speed_scale(scale)
        self.factor = self.real.effective_speed_factor

    def requeue(self, item: tuple) -> None:
        """:meth:`ServiceNode.requeue`: insert by enqueue time, so the
        head stays the oldest job and flush deadlines stay right."""
        queue = self.queue
        position = len(queue)
        for index, existing in enumerate(queue):
            if existing[2] > item[2]:
                position = index
                break
        queue.insert(position, item)

    def kill(self, now: float, aborted: int) -> None:
        """:meth:`ServiceNode.kill`, written through to the real node: the
        busy time not yet elapsed is refunded and the ``aborted``
        requests leave the served count."""
        if self.busy_until > now:
            self.busy_seconds -= self.busy_until - now
            self.busy_until = now
        self.served -= aborted
        self.alive = False
        self.write_back()
        self.real.alive = False


def run_columnar(
    sim, configurations, codes, replay_rows, *, max_events: int
) -> LoadTestReport:
    """Drain a simulator and build its report.

    Call with the routing pre-pass's ``(configurations, codes)`` and the
    ``replay_rows`` gather of ``ServingSimulator._refuse_unservable``;
    the submission columns are read from the simulator's store.  The
    scalar loop's event valve, ``max_events``, bounds the events
    ``schedule`` pushes (ticks, retries, fault restores): a tick that
    re-arms forever over rows that never resolve raises ``RuntimeError``
    instead of spinning.  An attached invariant checker makes the run
    take the stepwise machine, which calls the checker at the scalar
    loop's points (it sees an identical stream) and yields the digest the
    unchecked run yields; a trace recorder of a fault schedule or control
    plane gets its hooks there too.  Either way the report is built from
    the loop's columns and materializes records only when asked.
    """
    cluster = sim.cluster
    balancer = cluster.load_balancer
    checker = sim._check
    faults = sim._faults
    control = sim.control
    scaling = sim._scaling
    # A fault schedule, a control plane or an autoscaler brings event
    # sources, and the stepwise per-request state machine they act on
    # (see below); that machine also calls every checker hook.
    stepwise = (
        bool(faults)
        or control is not None
        or scaling is not None
        or checker is not None
    )
    # Per-attempt trees for a fault schedule or control plane, else columns.
    trace = sim._trace if faults or control is not None else None

    store = sim._store
    request_ids, payloads, times = store.ids, store.payloads, store.times
    n = len(request_ids)

    # ------------------------------------------------------------------
    # per-leg replay precomputation, one routed group at a time
    # ------------------------------------------------------------------
    # MeasurementReplayVersion.handle does, per job:
    #     compute_seconds = float(latency_s[row, col]) * baseline_scale
    # and the node divides by its effective speed factor.  float64
    # element-wise multiply is bit-identical to the scalar product, so the
    # whole column is composed up front; the per-node division happens at
    # batch execution (node speed factors may differ within a pool).
    def _leg_columns(version: str, group: int = -1):
        # Group -1 is every request, gathered here: a closed loop's
        # configurations are known only at arrival.
        replay = cluster._pool_specs[version].version
        ms = replay._measurements
        col = replay._column
        table = replay._rows
        rows = (
            replay_rows[group, id(table)]
            if group >= 0
            else np.fromiter(map(table.__getitem__, payloads), np.int64, n)
        )
        return (
            ms.latency_s[rows, col] * replay._baseline_scale,
            ms.confidence[rows, col],
        )

    if codes is None:
        groups = [slice(None)]
    else:
        group_of = np.fromiter(codes, dtype=np.intp, count=n)
        groups = [
            np.flatnonzero(group_of == g) for g in range(len(configurations))
        ]
    #: Distinct (fast_version, accurate_version) pairs, and per request
    #: the index of its own — what the report needs of the routing.
    pairs: List[tuple] = []
    pair_np = np.zeros(n, dtype=np.min_scalar_type(len(configurations)))
    kind_np = np.zeros(n, dtype=np.intp)
    compute_fast_np = np.zeros(n)
    conf_fast_np = np.zeros(n)
    # A single-version request has no accurate leg: its accurate columns
    # stay zero / never-escalates and are never read.
    compute_acc_np = np.zeros(n)
    conf_acc_np = np.zeros(n)
    threshold_np = np.zeros(n)
    escalates_np = np.zeros(n, dtype=bool)
    for group, configuration in enumerate(configurations):
        members = groups[group]
        # (fast, accurate); a single-version policy has no accurate leg.
        versions = configuration.versions
        pair = versions if len(versions) == 2 else (versions[0], None)
        if pair not in pairs:
            pairs.append(pair)
        if control is not None:
            continue  # a closed loop fills the columns at arrival: assign()
        pair_np[members] = pairs.index(pair)
        kind_np[members] = _KIND_CODES[configuration.kind]
        compute_fast_np[members], confidence = _leg_columns(pair[0], group)
        conf_fast_np[members] = confidence
        if pair[1] is not None:
            compute_acc_np[members], conf_acc_np[members] = _leg_columns(
                pair[1], group
            )
            # should_escalate is a strict `confidence < threshold`.
            threshold = require_confidence_threshold(configuration.policy)
            threshold_np[members] = threshold
            escalates_np[members] = confidence < threshold
    compute_fast: List[float] = compute_fast_np.tolist()
    compute_acc: List[float] = compute_acc_np.tolist()
    escalates: List[bool] = escalates_np.tolist()
    kind_of: List[int] = kind_np.tolist()
    kinds = {_KIND_CODES[configuration.kind] for configuration in configurations}

    pair_of: List[int] = pair_np.tolist()

    def per_request(of_pair: list) -> list:
        # One value per pair -> one per request.
        if len(of_pair) == 1:
            return of_pair * n
        return [of_pair[code] for code in pair_of]

    # ------------------------------------------------------------------
    # shadow cluster: one pool per version any pair names (per deployed
    # version under event sources: a fault may strike any pool, a swap or
    # a degrade pick any, an autoscaler read all)
    # ------------------------------------------------------------------
    pools = {
        version: [_ShadowNode(node) for node in balancer.nodes_of(version)]
        for version in (
            balancer.versions
            if stepwise
            else dict.fromkeys(
                v for pair in pairs for v in pair if v is not None
            )
        )
    }
    shadows = [node for pool in pools.values() for node in pool]

    # Node selection compiles to one zero-argument closure per pool, with
    # the pool (and, for the dominant two-node pools, the nodes
    # themselves) bound at build time.  Each closure is
    # LoadBalancer.select_node's join-shortest-queue scan: first-best
    # wins, later nodes only on a strict improvement.
    def _compile_select(pool):
        if len(pool) == 1:
            only = pool[0]
            return lambda: only
        if len(pool) == 2:
            first, second = pool

            def sel_jsq2():
                depth_first = len(first.queue)
                depth_second = len(second.queue)
                if depth_second < depth_first or (
                    depth_second == depth_first
                    and second.busy_until < first.busy_until
                ):
                    return second
                return first

            return sel_jsq2

        def sel_jsq():
            best = pool[0]
            best_depth = len(best.queue)
            best_busy = best.busy_until
            for node in pool:
                depth = len(node.queue)
                if depth < best_depth or (
                    depth == best_depth and node.busy_until < best_busy
                ):
                    best = node
                    best_depth = depth
                    best_busy = node.busy_until
            return best

        return sel_jsq

    selects = {version: _compile_select(pool) for version, pool in pools.items()}
    # Per request, the closure choosing its leg's node (``None`` where a
    # single-version request has no accurate leg).
    fast_select = per_request([selects[pair[0]] for pair in pairs])
    acc_select = per_request([selects.get(pair[1]) for pair in pairs])

    # ------------------------------------------------------------------
    # loop state
    # ------------------------------------------------------------------
    batching = sim._batching
    max_batch = batching.max_batch_size
    max_wait = batching.max_wait_s
    # _maybe_start's epsilon guard, precomposed.
    wait_threshold = max_wait - 1e-12
    batch_time = batching.batch_service_time

    # Arrivals never enter the heap: the scalar loop schedules them all
    # before any runtime event exists — after the fault onsets and the
    # herd releases it schedules first — so onsets, then
    # arrivals, win every time tie against a runtime event.  The stream
    # holds both: entry ``i < n`` is submission ``i``, entry ``n + j`` is
    # onset ``j`` (a node fault, or the log entry of a window opening or
    # a herd's release), and a stable sort of onsets-then-submissions by
    # time gives exactly the scalar loop's order.
    failures = sim._failures
    onsets = [
        entry or fault
        for fault, entry in zip(faults, failures.onset_entries)
        if entry or isinstance(fault, (NodeCrash, NodeSlowdown, GrayFailure))
    ]
    onsets += sim._releases
    n_stream = n + len(onsets)
    stream_times = times
    if onsets:
        stream_times = [
            *times,
            *(o.time_s if type(o) is FaultLogEntry else o.at_s for o in onsets),
        ]
    order = sorted(
        [*range(n, n_stream), *range(n)] if onsets else range(n),
        key=stream_times.__getitem__,
    )
    sorted_times = [stream_times[i] for i in order]

    heap: list = []
    seq = n - 1
    scheduled = 0

    fast_done: List[Optional[tuple]] = [None] * n
    acc_done: List[Optional[tuple]] = [None] * n
    acc_node: List[Optional[_ShadowNode]] = [None] * n
    acc_cancelled = bytearray(n)

    #: Finalized rows, in completion order:
    #: (sub, end, escalated, fast_seconds, accurate_seconds, fast_start);
    #: accurate_seconds is -1.0 for "leg not billed" (never negative).
    out: List[tuple] = []

    # ------------------------------------------------------------------
    # event flow (each helper mirrors one scalar loop method)
    # ------------------------------------------------------------------
    def start_batch(node, now):
        # _start_batch for a multi-item batch (callers execute the
        # single-job shape inline): cancel any armed flush, pop up to
        # max_batch items, execute, schedule one completion event at the
        # common finish.  Every caller guarantees the node is idle
        # (busy_until <= now), so the batch starts exactly at `now` — as
        # the scalar loop's max(now, busy_until) would resolve.
        nonlocal seq
        node.flush_seq = -1
        queue = node.queue
        k = len(queue)
        if k > max_batch:
            k = max_batch
        factor = node.factor
        items = [queue.popleft() for _ in range(k)]
        solos = [
            (compute_fast[item[0]] if item[1] == 0 else compute_acc[item[0]])
            / factor
            for item in items
        ]
        wall = batch_time(solos)
        finish = now + wall
        if checker is not None:
            checker.on_batch_started(node.real.node_id, now, finish)
        node.busy_until = finish
        node.busy_seconds += wall
        node.served += k
        seq += 1
        heappush(
            heap,
            (finish, (seq << 2) | _BATCH_DONE, node, (items, solos, now, wall)),
        )

    def maybe_start(node, now):
        # _maybe_start for a known-idle node with a non-empty queue,
        # including the `oldest_enqueued_at or now` quirk (an enqueue
        # time of exactly 0.0 reads as "no wait").  Callers inline the
        # idle/non-empty guards — they usually fail, and a closure call
        # per failed check is the hot loop's dominant overhead.  The
        # single-job batch (the overwhelmingly common shape) executes
        # right here rather than through start_batch.
        nonlocal seq
        queue = node.queue
        head_enqueued = queue[0][2]
        depth = len(queue)
        if (
            depth >= max_batch
            or max_wait <= 0.0
            or now - (head_enqueued or now) >= wait_threshold
        ):
            if depth == 1 or max_batch == 1:
                node.flush_seq = -1
                sub, leg, _enq = queue.popleft()
                solo = (
                    compute_fast[sub] if leg == 0 else compute_acc[sub]
                ) / node.factor
                finish = now + solo
                if checker is not None:
                    checker.on_batch_started(node.real.node_id, now, finish)
                node.busy_until = finish
                node.busy_seconds += solo
                node.served += 1
                seq += 1
                heappush(
                    heap,
                    (finish, (seq << 2) | _ONE_DONE, node, (sub, leg, solo, now)),
                )
            else:
                start_batch(node, now)
        elif node.flush_seq < 0:
            seq += 1
            tag = seq << 2  # | _FLUSH
            node.flush_seq = tag
            heappush(heap, (head_enqueued + max_wait, tag, node, None))

    def enqueue_accurate(sub, now):
        # _enqueue_attempt for the accurate leg, on a live pool
        # (parking is unreachable fault-free).
        node = acc_select[sub]()
        node.queue.append((sub, 1, now))
        acc_node[sub] = node
        if node.busy_until <= now:
            maybe_start(node, now)

    def cancel_queued(node, sub, now):
        # _cancel_queued_job: remove the request's queued job (a node
        # serves one version, so one leg), drop the (possibly stale) flush
        # timer, re-arm from the new queue state.
        queue = node.queue
        for item in queue:
            if item[0] == sub:
                queue.remove(item)
                break
        else:
            return False
        node.flush_seq = -1
        if queue and node.busy_until <= now:
            maybe_start(node, now)
        return True

    def deliver(sub, leg, start, finish, amortized, solo, now, size):
        # _on_job_done + _advance for a fault-free, unchecked run.
        kind = kind_of[sub]
        if kind == _SINGLE:
            out.append((sub, finish, False, amortized, -1.0, start))
            return
        if kind == _SEQ:
            if leg == 0:
                if escalates[sub]:
                    fast_done[sub] = (start, finish, amortized, solo)
                    enqueue_accurate(sub, now)
                else:
                    out.append((sub, finish, False, amortized, -1.0, start))
            else:
                fast = fast_done[sub]
                out.append((sub, finish, True, fast[2], amortized, fast[0]))
            return
        # conc / et
        if leg == 0:
            fast_done[sub] = (start, finish, amortized, solo)
            accurate = acc_done[sub]
            if escalates[sub]:
                if accurate is not None:
                    acc_finish = accurate[1]
                    end = finish if finish >= acc_finish else acc_finish
                    out.append((sub, end, True, amortized, accurate[2], start))
                return
            if kind == _ET and accurate is None and not acc_cancelled[sub]:
                if cancel_queued(acc_node[sub], sub, now):
                    acc_cancelled[sub] = True
                    out.append((sub, finish, False, amortized, -1.0, start))
                    return
                # Already running: let it finish, bill the capped share.
            if accurate is None:
                return
            acc_seconds = accurate[2]
            if kind == _ET and solo < acc_seconds:
                # early_termination_cap: min(accurate, fast solo time)
                acc_seconds = solo
            out.append((sub, finish, False, amortized, acc_seconds, start))
            return
        # accurate leg of conc/et
        acc_done[sub] = (start, finish, amortized, solo)
        fast = fast_done[sub]
        if fast is None:
            return
        fast_finish = fast[1]
        if escalates[sub]:
            end = fast_finish if fast_finish >= finish else finish
            out.append((sub, end, True, fast[2], amortized, fast[0]))
        else:
            acc_seconds = amortized
            if kind == _ET and fast[3] < acc_seconds:
                acc_seconds = fast[3]
            out.append((sub, fast_finish, False, fast[2], acc_seconds, fast[0]))

    # ------------------------------------------------------------------
    # the stepwise state machine: event sources and the failed-attempt
    # path (each helper mirrors one scalar loop method, per request
    # ``sub`` and leg ``key = sub << 1 | leg``)
    # ------------------------------------------------------------------
    fault_log: list = []
    #: Stream entries (onsets and arrivals) handled so far.
    streamed = 0
    if stepwise:
        leg_version = [None] * (2 * n)
        leg_version[0::2] = per_request([pair[0] for pair in pairs])
        leg_version[1::2] = per_request([pair[1] for pair in pairs])
        attempt = [0] * (2 * n)
        leg_open = bytearray(2 * n)
        retry_pending = bytearray(2 * n)
        leg_node: List[Optional[_ShadowNode]] = [None] * (2 * n)
        #: The escalation decision, taken when the fast leg lands.
        esc: List[Optional[bool]] = [None] * n
        fast_failed = bytearray(n)
        acc_failed = bytearray(n)
        resolved = bytearray(n)
        failed = bytearray(n)
        acc_only = bytearray(n)
        shed = bytearray(n)
        degraded = bytearray(n)
        #: Per row of ``out``, the clock when it was finalized.
        finalized_at: List[float] = []
        retries = [0] * n
        planned = [0] * n
        denied = bytearray(n)
        conf_fast = conf_fast_np.tolist()
        conf_acc = conf_acc_np.tolist()
        thresholds = threshold_np.tolist()
        #: version -> {sub: job} waiting, in arrival order, for a pool
        #: with no live node.
        parked: dict = {}
        waves = [fault for fault in faults if isinstance(fault, ColdStartWave)]
        #: Which completions the schedule fails (None: none can fail).
        fails = failures.failure if failures.active else None
        retry = sim._retry
        max_attempts = retry.max_attempts
        retry_budget = retry.retry_budget
        max_total = retry.max_total_retries
        max_inflight = retry.max_inflight_retries
        planned_total = 0
        inflight = 0

    def schedule(time, handler, arg):
        # The serving events of the loop below never come through here,
        # so only runs with event sources count toward the valve.
        nonlocal seq, scheduled
        scheduled += 1
        if scheduled > max_events:
            stuck = sorted(
                {handler.__name__}
                | {e[2].__name__ for e in heap if e[1] & 3 == _SOURCE}
            )
            raise RuntimeError(
                f"event loop hit its {max_events}-event valve with {stuck} pending"
            )
        seq += 1
        heappush(heap, (time, (seq << 2) | _SOURCE, handler, arg))

    def enqueue_attempt(key, now):
        # _enqueue_attempt: the leg's next attempt joins a live node's
        # queue, or parks while its pool has none.
        sub = key >> 1
        version = leg_version[key]
        attempt[key] += 1
        leg_open[key] = True
        if checker is not None:
            checker.on_attempt_started(
                request_ids[sub], version, attempt[key], now
            )
        if trace is not None:
            trace.on_attempt(
                request_ids[sub], version, "accurate" if key & 1 else "fast",
                attempt[key], now, parked=not pools[version],
            )
        item = (sub, key & 1, now)
        if not pools[version]:
            parked.setdefault(version, {})[sub] = item
            leg_node[key] = None
            return
        node = selects[version]()
        node.queue.append(item)
        leg_node[key] = node
        if node.busy_until <= now:
            maybe_start(node, now)

    def arrive(sub, now):
        # _on_arrival, and the fault onsets that share its stream.
        nonlocal streamed
        streamed += 1
        if sub >= n:
            item = onsets[sub - n]
            if type(item) is FaultLogEntry:
                fault_log.append(item)
            else:
                onset(item, now)
            return
        if trace is not None:
            trace.on_arrival(request_ids[sub], now)
        if control is not None and not admit(sub, now):
            return
        if checker is not None:
            checker.on_arrival(request_ids[sub], now)
        enqueue_attempt(sub << 1, now)
        if kind_of[sub] >= _CONC:
            enqueue_attempt(sub << 1 | 1, now)

    def resolve(sub, end, fast_s, acc_s, start, now):
        # _finalize / _finalize_failed: one row, in completion order.  A
        # failure (fast_s == -1.0) bills nothing.  The request's legs are
        # closed already: attempt_failed fails it only when no other leg
        # is viable, and the end-of-run resolution drops the parked ones.
        if fast_s < 0.0:
            failed[sub] = 1
            fast = fast_done[sub]
            start = fast[0] if fast is not None else times[sub]
        out_append((sub, end, bool(esc[sub]), fast_s, acc_s, start))
        finalized_at.append(now)
        resolved[sub] = 1
        if checker is not None:
            checker.on_finalized(request_ids[sub], now, failed=fast_s < 0.0)

    def pool_load(version):
        # _pool_load: mean queued jobs per live node, parked jobs counted.
        pool = pools[version]
        depth = sum(len(node.queue) for node in pool)
        return (depth + len(parked.get(version, ()))) / max(1, len(pool))

    def on_job_done(sub, leg, start, finish, amortized, solo, now, size):
        # _on_job_done + _advance, with the confidence the node reports
        # deflated while it is gray or warming up.
        key = sub << 1 | leg
        if fails is not None:
            reason = fails(leg_version[key], finish, pool_load)
            if reason is not None:
                attempt_failed(key, now, reason)
                return
        leg_open[key] = False
        if checker is not None:
            checker.on_attempt_finished(
                request_ids[sub],
                leg_version[key],
                attempt[key],
                finish,
                "ok",
                seconds=amortized,
            )
        node = leg_node[key]
        if trace is not None:
            trace.on_attempt_done(
                request_ids[sub], leg_version[key], start, finish, amortized, size,
                node.real.node_id,
            )
        factor = node.deflate
        if leg:
            if factor is not None:
                conf_acc[sub] *= factor
            acc_done[sub] = (start, finish, amortized, solo)
        else:
            if factor is not None:
                conf_fast[sub] *= factor
                escalates[sub] = conf_fast[sub] < thresholds[sub]
            fast_done[sub] = (start, finish, amortized, solo)
        fast = fast_done[sub]
        accurate = acc_done[sub]
        kind = kind_of[sub]
        if fast_failed[sub]:
            # Degraded conc/et fallback: the accurate result answers alone.
            if accurate is not None:
                acc_only[sub] = 1
                resolve(
                    sub, max(now, accurate[1]), accurate[2], -1.0,
                    accurate[0], now,
                )
            return
        if kind == _SINGLE:
            resolve(sub, finish, amortized, -1.0, start, now)
            return
        if fast is not None and esc[sub] is None:
            esc[sub] = escalates[sub]
            if esc[sub] and trace is not None:
                trace.on_escalated(request_ids[sub], now)
        acc_key = sub << 1 | 1
        if kind == _SEQ:
            if fast is None:
                return
            if esc[sub] is False:
                resolve(sub, fast[1], fast[2], -1.0, fast[0], now)
            elif not attempt[acc_key]:
                enqueue_attempt(acc_key, now)
            elif accurate is not None:
                resolve(sub, accurate[1], fast[2], accurate[2], fast[0], now)
            return
        if acc_failed[sub] and fast is not None:
            # The accurate leg is gone: the fast result alone decides.
            if esc[sub]:
                resolve(sub, now, -1.0, -1.0, None, now)
            else:
                resolve(sub, fast[1], fast[2], -1.0, fast[0], now)
            return
        if fast is None:
            return
        if esc[sub]:
            if accurate is not None:
                resolve(
                    sub, max(fast[1], accurate[1]), fast[2], accurate[2],
                    fast[0], now,
                )
            return
        if kind == _ET and accurate is None and not acc_cancelled[sub]:
            # Not started yet — queued, parked or in backoff: cancelled
            # at no cost.  Already running: it finishes, capped below.
            node = leg_node[acc_key]
            cancelled = (
                node is not None and cancel_queued(node, sub, now)
            ) or parked.get(leg_version[acc_key], {}).pop(sub, None)
            if cancelled or retry_pending[acc_key]:
                acc_cancelled[sub] = True
                if cancelled:
                    leg_open[acc_key] = False
                    if checker is not None:
                        checker.on_attempt_finished(
                            request_ids[sub],
                            leg_version[acc_key],
                            attempt[acc_key],
                            now,
                            "cancelled",
                        )
                else:
                    retry_pending[acc_key] = False
                resolve(sub, fast[1], fast[2], -1.0, fast[0], now)
                return
        if accurate is None:
            return
        acc_seconds = accurate[2]
        if kind == _ET and fast[3] < acc_seconds:
            acc_seconds = fast[3]  # early_termination_cap
        resolve(sub, fast[1], fast[2], acc_seconds, fast[0], now)

    def attempt_failed(key, now, reason):
        # _attempt_failed: retry under the policy and its budgets, else
        # the degraded fallbacks, else a terminal failure.
        nonlocal planned_total, inflight
        sub = key >> 1
        version = leg_version[key]
        tries = attempt[key]
        leg_open[key] = False
        if checker is not None:
            checker.on_attempt_finished(
                request_ids[sub], version, tries, now, reason
            )
        if trace is not None:
            trace.on_attempt_failed(request_ids[sub], version, now, reason)
        if tries < max_attempts:
            if (
                (retry_budget is None or planned[sub] < retry_budget)
                and (max_total is None or planned_total < max_total)
                and (max_inflight is None or inflight < max_inflight)
            ):
                retry_pending[key] = True
                planned[sub] += 1
                planned_total += 1
                inflight += 1
                delay = retry.delay_before_retry(tries)
                if trace is not None:
                    trace.on_retry_wait(request_ids[sub], version, tries, now, delay)
                schedule(now + delay, on_retry, key)
                return
            denied[sub] = 1
            if checker is not None:
                checker.on_retry_denied(request_ids[sub], version, now)
            if trace is not None:
                trace.on_retry_denied(request_ids[sub], version, now)
        fast = fast_done[sub]
        if key & 1:
            if fast is not None and esc[sub] is False:
                # A confident fast answer makes the accurate loss harmless.
                resolve(sub, fast[1], fast[2], -1.0, fast[0], now)
                return
            if (
                kind_of[sub] >= _CONC
                and fast is None
                and (leg_open[key ^ 1] or retry_pending[key ^ 1])
            ):
                acc_failed[sub] = 1  # the fast gate decides when it lands
                return
        elif (
            kind_of[sub] >= _CONC
            and not acc_cancelled[sub]
            and (
                acc_done[sub] is not None
                or leg_open[key | 1]
                or retry_pending[key | 1]
            )
        ):
            fast_failed[sub] = 1
            accurate = acc_done[sub]
            if accurate is not None:
                acc_only[sub] = 1
                resolve(
                    sub, max(now, accurate[1]), accurate[2], -1.0,
                    accurate[0], now,
                )
            return
        resolve(sub, now, -1.0, -1.0, None, now)

    def on_retry(key, now):
        # _on_retry: the backoff is over.
        nonlocal inflight
        inflight -= 1
        if not retry_pending[key]:
            return  # cancelled by early termination
        retry_pending[key] = False
        sub = key >> 1
        retries[sub] += 1
        enqueue_attempt(key, now)

    def deflated(subs, node, now):
        # _on_batch_done, before delivery.
        node_id, factor = node.real.node_id, node.deflate
        for sub in subs:
            trace.on_deflated(request_ids[sub], node_id, factor, now)

    def reselect(version):
        # Pool membership changed: recompile the pool's selection over it.
        selects[version] = _compile_select(pools[version])

    def onset(fault, now):
        # _on_node_crash / _on_degrade.
        version = fault.version
        pool = pools[version]
        node, skipped = fault.victim(pool, now)
        if node is None:
            fault_log.append(skipped)
            return
        if not isinstance(fault, NodeCrash):
            node.set_speed_scale(fault.speed_factor)
            if isinstance(fault, GrayFailure):
                factor = fault.confidence_factor
                node.deflate = factor if factor < 1.0 else None
            fault_log.append(fault.onset_entry(now, version, node.real.node_id))
            if fault.until_s is not None:
                schedule(fault.until_s, restore, (fault, version, node))
            return
        node.flush_seq = -1
        aborted = []
        for index, event in enumerate(heap):
            if event[2] is node and event[1] & 3:
                # The node's running batch died mid-execution.
                info = event[3]
                aborted = (
                    [info[:2]]
                    if event[1] & 3 == _ONE_DONE
                    else [item[:2] for item in info[0]]
                )
                heap[index] = heap[-1]
                heap.pop()
                heapify(heap)
                if checker is not None:
                    checker.on_batch_aborted(node.real.node_id, now)
                break
        node.kill(now, len(aborted))
        queued = list(node.queue)
        node.queue.clear()
        pool.remove(node)
        cluster.kill_node(version, node.real, now=now)
        reselect(version)
        if scaling is not None:
            scaling.rebase(version, pool)
        fault_log.append(
            fault.crash_entry(now, node.real.node_id, len(aborted), len(queued))
        )
        cascade = failures.on_crash(version, now)
        if cascade is not None:
            fault_log.append(cascade)
        # Queued work never started: it migrates, same attempt.
        for item in queued:
            sub = item[0]
            key = sub << 1 | item[1]
            if trace is not None:
                trace.on_migrated(request_ids[sub], version, now, parked=not pool)
            if not pool:
                parked.setdefault(version, {})[sub] = item
                leg_node[key] = None
                continue
            target = selects[version]()
            target.requeue(item)
            leg_node[key] = target
            target.flush_seq = -1
            if target.busy_until <= now:
                maybe_start(target, now)
        # Running work died mid-execution: those attempts failed.
        for sub, leg in aborted:
            attempt_failed(sub << 1 | leg, now, "crash")
        if fault.recover_at_s is not None:
            schedule(fault.recover_at_s, recover, fault)

    def recover(fault, now):
        grow(fault.version, now, fault)

    def grow(version, now, fault=None):
        # _grow: a node joins the pool — a crash's replacement (logged) or
        # an autoscaler's — warming first under a cold-start wave, then
        # the work parked behind the pool lands on it (_on_capacity_added).
        real = cluster.add_nodes(version, 1)[0]
        node = _ShadowNode(real)
        pools[version].append(node)
        shadows.append(node)
        reselect(version)
        if fault is not None:
            fault_log.append(fault.recover_entry(now, real.node_id))
        wave = next((w for w in waves if w.covers(version)), None)
        if wave is not None:
            node.set_speed_scale(wave.speed_factor)
            if wave.confidence_factor < 1.0:
                node.deflate = wave.confidence_factor
            fault_log.append(wave.onset_entry(now, version, real.node_id))
            schedule(now + wave.warmup_s, restore, (wave, version, node))
        touched = {}
        for item in parked.pop(version, {}).values():
            target = selects[version]()
            target.requeue(item)
            leg_node[item[0] << 1 | item[1]] = target
            touched[target] = None
        for target in touched:
            target.flush_seq = -1
            if target.busy_until <= now:
                maybe_start(target, now)

    def restore(args, now):
        # _on_restore.
        fault, version, node = args
        if not isinstance(fault, NodeSlowdown):
            node.deflate = None
        if node.alive:
            node.set_speed_scale(1.0)
            fault_log.append(
                fault.restore_entry(now, version, node.real.node_id)
            )

    def shrink(version, now):
        # LoadBalancer.remove_node's rule over shadow state: the last node
        # in pool order with an empty queue and no batch running.
        pool = pools[version]
        for node in reversed(pool):
            if not node.queue and node.busy_until <= now:
                node.write_back()
                pool.remove(node)
                reselect(version)
                balancer.evict_node(version, node.real)
                cluster._retire(version, node.real)
                return node
        return None

    if scaling is not None:
        # Defined only here: the tick re-arms itself, a reference cycle
        # that would keep a run's rows alive until the cyclic collector.
        def autoscale(_, now):
            # _on_autoscale_tick: ticks on while any row is unresolved,
            # the scalar loop's ``_remaining > 0``.
            scaling.tick(
                now, pools, parked,
                lambda version: grow(version, now),
                lambda version: shrink(version, now),
            )
            if len(out) < n:
                schedule(now + scaling.interval, autoscale, None)

        # drain() arms it after every arrival and before the control tick.
        schedule(scaling.interval, autoscale, None)

    # ------------------------------------------------------------------
    # the control plane: admission at each arrival, and a tick source that
    # hands the plane the rows finalized since the last tick
    # ------------------------------------------------------------------
    pricing = cluster.pricing
    price_of = {
        version: pricing.instance_for(version).price_per_second
        for version in pools
    }
    observe_node = None
    if control is not None:
        # Only a closed-loop run reads the plane's actions, by identity.
        from repro.service.control.admission import AdmissionAction

        SHED, DEGRADE = AdmissionAction.SHED, AdmissionAction.DEGRADE
        fixed = sim._configuration is not None
        tolerances = store.tolerances
        fee, markup = pricing.per_request_fee, pricing.markup
        # Node service times feed gray-failure detection (skipped for a
        # plane that says it has no detector: it would ignore them).
        if getattr(control, "gray_detector", True) is not None:
            observe_node = sim._observe_node
        interval = control.tick_interval_s
        #: Rows of ``out`` the plane has been handed.
        flushed = 0
        #: id(configuration) -> (configuration, kind, pair code, pair,
        #: fast leg columns, accurate leg columns, threshold).
        plans: dict = {}
        #: version -> every request's (compute, confidence) on it.
        version_columns: dict = {}

        def assign(sub, configuration):
            # A closed-loop request's kind, legs and leg columns, from the
            # configuration serving it at its arrival event.
            plan = plans.get(id(configuration))
            if plan is None:
                versions = configuration.versions
                pair = versions if len(versions) == 2 else (versions[0], None)
                if pair not in pairs:
                    pairs.append(pair)
                legs = []
                for version in pair:
                    if version is not None and version not in version_columns:
                        version_columns[version] = [
                            column.tolist() for column in _leg_columns(version)
                        ]
                    legs.append(version_columns.get(version))
                plan = plans[id(configuration)] = (
                    configuration,  # keeps the id unique while planned
                    _KIND_CODES[configuration.kind],
                    pairs.index(pair),
                    pair,
                    *legs,
                    require_confidence_threshold(configuration.policy)
                    if pair[1] is not None
                    else 0.0,
                )
            _, kind, code, pair, fast, accurate, threshold = plan
            kind_of[sub] = kind
            pair_of[sub] = code
            leg_version[sub << 1], leg_version[sub << 1 | 1] = pair
            compute_fast[sub] = fast[0][sub]
            conf_fast[sub] = confidence = fast[1][sub]
            if accurate is not None:
                compute_acc[sub] = accurate[0][sub]
                conf_acc[sub] = accurate[1][sub]
                thresholds[sub] = threshold
                escalates[sub] = confidence < threshold

        def admit(sub, now):
            # _on_arrival's admission: False when the request was shed
            # (resolved unserved on the spot), else its columns are set.
            configuration = (
                sim._configuration
                if fixed
                else configurations[codes[sub] if codes else 0]
            )
            decision = control.admit(now, planned=configuration)
            if decision.action is SHED:
                if trace is not None:
                    reason = getattr(decision, "reason", "") or ""
                    trace.on_admission(request_ids[sub], "shed", reason, now)
                if checker is not None:
                    checker.on_arrival(request_ids[sub], now)
                    checker.on_shed(request_ids[sub], now)
                shed[sub] = resolved[sub] = 1
                out_append((sub, now, False, -1.0, -1.0, now))
                finalized_at.append(now)
                return False
            if decision.action is DEGRADE and decision.configuration is not None:
                configuration = decision.configuration
                degraded[sub] = 1
                if trace is not None:
                    trace.on_admission(
                        request_ids[sub], "degrade", configuration.config_id, now
                    )
            assign(sub, configuration)
            return True

        def flush():
            # The rows finalized since the last flush, into the plane's
            # telemetry in one call: no record is built.
            nonlocal flushed
            start, flushed = flushed, len(out)
            if start == flushed:
                return
            rows = []
            for (sub, end, _, fast_s, acc_s, _), t in zip(
                out[start:flushed], finalized_at[start:flushed]
            ):
                # The record's invocation_cost and node_seconds, priced as
                # compose() prices the report (failures and sheds: none).
                cost, billed = 0.0, {}
                if fast_s >= 0.0:
                    fast_version, acc_version = (
                        (leg_version[sub << 1 | 1], None)
                        if acc_only[sub]
                        else pairs[pair_of[sub]]
                    )
                    billed[fast_version] = fast_s
                    iaas = fast_s * price_of[fast_version]
                    if acc_s >= 0.0:
                        billed[acc_version] = acc_s
                        iaas = iaas + acc_s * price_of[acc_version]
                    cost = fee + markup * iaas
                rows.append(
                    (
                        t, tolerances[sub], shed[sub], failed[sub],
                        degraded[sub], end - times[sub], cost, billed,
                    )
                )
            control.observe_rows(rows)

        def live(event):
            # Anything but a lazily cancelled flush timer.
            return event[1] & 3 != _FLUSH or event[1] == event[2].flush_seq

        def tick(_, now):
            # _on_control_tick: the plane first sees every row finalized
            # before this tick; a swap serves later arrivals only.
            flush()
            swap = control.on_tick(now)
            if swap is not None:
                sim._apply_configuration(swap)
                if trace is not None:
                    trace.on_epoch(now, swap.config_id)
            # Tick on only while something else can still happen: parked
            # requests behind a pool that never comes back hold no event.
            if len(out) < n and (streamed < n_stream or any(map(live, heap))):
                schedule(now + interval, tick, None)

        # drain() schedules the first tick after every arrival and the
        # first autoscale tick, and before any runtime event.
        schedule(interval, tick, None)

    # ------------------------------------------------------------------
    # report columns
    # ------------------------------------------------------------------
    def compose(rows) -> RecordColumns:
        # The columns of finalized rows of ``out`` (every row at drain
        # end; a flush's rows when the plane wants records).
        n_out = len(rows)
        o_sub, o_end, o_esc, o_fast, o_acc, o_fstart = zip(*rows)
        sub_idx = np.fromiter(o_sub, dtype=np.int64, count=n_out)
        finished = np.fromiter(o_end, dtype=np.float64, count=n_out)
        escalated = np.fromiter(o_esc, dtype=bool, count=n_out)
        fast_seconds = np.fromiter(o_fast, dtype=np.float64, count=n_out)
        acc_seconds = np.fromiter(o_acc, dtype=np.float64, count=n_out)
        fast_starts = np.fromiter(o_fstart, dtype=np.float64, count=n_out)
        arrivals = np.asarray(times, dtype=np.float64)[sub_idx]
        tiers = np.asarray(store.tolerances, dtype=np.float64)[sub_idx]
        pair_codes = (pair_np if control is None else np.array(pair_of))[sub_idx]
        row_payloads = [payloads[i] for i in o_sub]
        # conf_acc_np is only ever read where the request escalated.
        confidence = np.where(
            escalated, conf_acc_np[sub_idx], conf_fast_np[sub_idx]
        )
        stepwise_columns = {}
        if stepwise:
            # The stepwise rows: a failure or a shed bills nothing and has
            # no answer; an accurate-only answer bills (and is answered
            # by) its accurate leg alone, as the pair (accurate, None) the
            # scalar loop's record names; confidences carry any deflation.
            failed_rows = np.frombuffer(failed, dtype=bool)[sub_idx]
            shed_rows = np.frombuffer(shed, dtype=bool)[sub_idx]
            lost = failed_rows | shed_rows
            only_rows = np.frombuffer(acc_only, dtype=bool)[sub_idx]
            confidence = np.where(
                escalated | only_rows,
                np.asarray(conf_acc)[sub_idx],
                np.asarray(conf_fast)[sub_idx],
            )
            confidence[lost] = 0.0
            if only_rows.any():
                solo_code = []
                for fast_version, acc_version in list(pairs):
                    pair = (acc_version or fast_version, None)
                    if pair not in pairs:
                        pairs.append(pair)
                    solo_code.append(pairs.index(pair))
                pair_codes = np.where(
                    only_rows, np.array(solo_code)[pair_codes], pair_codes
                )
            stepwise_columns = dict(
                failed=failed_rows,
                shed=shed_rows,
                degraded=np.frombuffer(degraded, dtype=bool)[sub_idx],
                retries=np.array(retries, dtype=np.int64)[sub_idx],
                retry_denied=np.frombuffer(denied, dtype=bool)[sub_idx],
                no_confidence=lost,
                results=[
                    None if gone else payload
                    for payload, gone in zip(row_payloads, lost.tolist())
                ]
                if lost.any()
                else None,
            )
        # PricingModel.request_cost, vectorized with the same operation
        # order, each row priced by its own pair: cost_v = seconds_v *
        # price_v; iaas = fast + accurate (the scalar loop's left fold
        # starts at integer 0, and 0 + x == x, x + 0.0 == x exactly for
        # the non-negative costs here); invocation = fee + markup * iaas.
        price_fast = np.array([price_of[pair[0]] for pair in pairs])
        price_acc = np.array([price_of.get(pair[1], 0.0) for pair in pairs])
        iaas = fast_seconds * price_fast[pair_codes] + np.where(
            acc_seconds >= 0.0, acc_seconds * price_acc[pair_codes], 0.0
        )
        invocation = pricing.per_request_fee + pricing.markup * iaas
        if stepwise:
            invocation[lost] = 0.0  # failures and sheds are not billed
        return RecordColumns(
            request_ids=[request_ids[i] for i in o_sub],
            payloads=row_payloads,
            tier=tiers,
            arrival_s=arrivals,
            finished_s=finished,
            response_time_s=finished - arrivals,
            queue_wait_s=fast_starts - arrivals,
            escalated=escalated,
            invocation_cost=invocation,
            pairs=pairs,
            pair_code=pair_codes,
            node_seconds_fast=fast_seconds,
            node_seconds_accurate=acc_seconds,
            confidence=confidence,
            **stepwise_columns,
        )

    both_legs_at_arrival = max(kinds) >= _CONC
    # Specialized single-job delivery when every request is `seq` and
    # the run has no stepwise machine: the same transitions as deliver(),
    # with the call and its branch ladder inlined into the loop below.
    inline_seq = kinds == {_SEQ} and not stepwise
    out_append = out.append

    # ------------------------------------------------------------------
    # the loop (arrival handling inlined — it is the hottest edge)
    # ------------------------------------------------------------------
    if stepwise:
        deliver = on_job_done
    pointer = 0
    while pointer < n_stream or heap:
        if pointer < n_stream and (
            not heap or sorted_times[pointer] <= heap[0][0]
        ):
            now = sorted_times[pointer]
            sub = order[pointer]
            pointer += 1
            if stepwise:
                arrive(sub, now)
                continue
            node = fast_select[sub]()
            node.queue.append((sub, 0, now))
            if node.busy_until <= now:
                maybe_start(node, now)
            if both_legs_at_arrival and kind_of[sub] >= _CONC:
                enqueue_accurate(sub, now)
            continue
        # `now` moves only on an event that fires: the end-of-run
        # resolution reads the time of the last one.
        event = heappop(heap)
        tag = event[1]
        node = event[2]
        code = tag & 3
        if code == _ONE_DONE:
            now = event[0]
            sub, leg, solo, start = event[3]
            # amortized == wall / 1 == solo (x / 1 is exact)
            if inline_seq:
                if leg == 0:
                    if escalates[sub]:
                        fast_done[sub] = (start, now, solo, solo)
                        acc = acc_select[sub]()
                        acc.queue.append((sub, 1, now))
                        if acc.busy_until <= now:
                            maybe_start(acc, now)
                    else:
                        out_append((sub, now, False, solo, -1.0, start))
                else:
                    fast = fast_done[sub]
                    out_append((sub, now, True, fast[2], solo, fast[0]))
            else:
                if trace is not None and node.deflate is not None:
                    deflated((sub,), node, now)
                if observe_node is not None:
                    observe_node(
                        node.real.node_id, node.real.version.name, solo, now
                    )
                deliver(sub, leg, start, now, solo, solo, now, 1)
            # An event tied with this completion (an arrival, a retry
            # whose backoff ends now) may have started the next job.
            if node.queue and node.busy_until <= now:
                maybe_start(node, now)
        elif code == _FLUSH:
            if tag != node.flush_seq:
                continue  # stale timer, lazily cancelled
            now = event[0]
            node.flush_seq = -1
            queue = node.queue
            if queue and node.busy_until <= now:
                # Flush fires mostly on one waiting job — inline it, as
                # maybe_start does (same singleton transition).
                if len(queue) == 1 or max_batch == 1:
                    sub, leg, _enq = queue.popleft()
                    solo = (
                        compute_fast[sub] if leg == 0 else compute_acc[sub]
                    ) / node.factor
                    finish = now + solo
                    if checker is not None:
                        checker.on_batch_started(node.real.node_id, now, finish)
                    node.busy_until = finish
                    node.busy_seconds += solo
                    node.served += 1
                    seq += 1
                    heappush(
                        heap,
                        (
                            finish,
                            (seq << 2) | _ONE_DONE,
                            node,
                            (sub, leg, solo, now),
                        ),
                    )
                else:
                    start_batch(node, now)
        elif code == _BATCH_DONE:
            now = event[0]
            items, solos, start, wall = event[3]
            k = len(items)
            amortized = wall / k
            if trace is not None and node.deflate is not None:
                deflated([item[0] for item in items], node, now)
            if observe_node is not None:
                for _ in range(k):
                    observe_node(
                        node.real.node_id, node.real.version.name, wall, now
                    )
            for index in range(k):
                item = items[index]
                deliver(
                    item[0], item[1], start, now, amortized,
                    solos[index], now, k,
                )
            if node.queue and node.busy_until <= now:
                maybe_start(node, now)
        else:
            now = event[0]
            node(event[3], now)  # a fault or retry source

    if faults and len(out) < n:
        # drain()'s end-of-run resolution: every queued job has run and
        # every retry fired, so what is left is parked behind a pool whose
        # capacity never came back: those jobs are dropped, unserved.  A
        # request holding a confident fast answer responds with it; the
        # rest fail — in arrival order.
        for sub in order:
            if sub < n and not resolved[sub]:
                for key in (sub << 1, sub << 1 | 1):
                    dropped = leg_open[key] and parked.get(
                        leg_version[key], {}
                    ).pop(sub, None)
                    if dropped and checker is not None:
                        checker.on_attempt_finished(
                            request_ids[sub], leg_version[key], attempt[key],
                            now, "unserved",
                        )
                fast = fast_done[sub]
                if esc[sub] is False and fast is not None:
                    resolve(sub, fast[1], fast[2], -1.0, fast[0], now)
                else:
                    resolve(sub, now, -1.0, -1.0, None, now)

    if control is not None:
        flush()
    if len(out) != n:
        raise RuntimeError(
            f"event loop drained with {n - len(out)} requests unresolved"
        )

    # ------------------------------------------------------------------
    # write-back: the real cluster must end as the scalar loop leaves it
    # ------------------------------------------------------------------
    for shadow in shadows:
        shadow.write_back()

    report = LoadTestReport(
        columns=compose(out),
        engine_used="columnar",
        scaling_events=[] if scaling is None else list(scaling.autoscaler.events),
        final_pool_sizes=cluster.pool_sizes(),
        fault_log=fault_log,
        control_log=list(control.log) if control is not None else [],
    )
    if checker is not None:
        checker.verify(report, cluster, sim._retry)
    if trace is not None:  # the staged attempts become trees, as at finalize
        for record in report.records:
            trace.on_finalized(record)
    elif sim._trace is not None:
        sim._trace.on_columnar_report(report)
    return report
