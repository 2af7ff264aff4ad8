"""The columnar hot path of the serving simulator.

The legacy engine is a general discrete-event machine: every request is a
heap-allocated ``_InFlight`` object, every event a closure over an
``Event`` record, every completion a frozen ``NodeCompletion`` dataclass,
and every finalized request a ``RequestRecord`` priced through the full
``PricingModel`` call chain.  That generality is exactly right for the
fault/retry/control state space — and needless for the overwhelmingly
common case that dominates wall time: a fault-free, open-loop load test
over a measurement-replay cluster, whether one fixed configuration
serves it or a tier router picks one per request.

``run_columnar`` re-executes that common case with the *same* event
semantics but none of the object machinery:

* request state lives in parallel lists indexed by submission order
  (the simulator's submission store, read as it stands),
* the routing decision is request state too: the drain's pre-pass
  routes each distinct ``(tolerance, objective)`` once and groups the
  submissions by the configuration they got; the per-leg compute /
  confidence / escalates columns are composed one group at a time, and
  the event flow reads a per-request kind code and per-request leg
  pools.  A fixed-configuration run is the one-group case of the same
  loop (its inlined ``seq`` / ``single`` deliveries stay selected
  whenever every request shares one kind),
* the event heap holds plain tuples (three event kinds — flush,
  single-job completion, batch completion — cover the whole fault-free
  state space; arrivals are a pre-sorted stream merged in without ever
  touching the heap),
* node state is a handful of slots on a shadow struct, written back to
  the real :class:`~repro.service.node.ServiceNode` objects at the end,
* per-request latency/billing/confidence columns are composed with
  vectorized numpy expressions after the loop, and the report is built
  from :class:`~repro.service.simulation.report.RecordColumns` without
  materializing a single ``RequestRecord`` up front.

**Bit-exactness is the contract, not an aspiration.**  Every arithmetic
expression here mirrors the legacy engine's scalar float operations in
the same order (IEEE-754 makes ``a*b``/``a+b`` on float64 identical
whether issued from Python scalars or numpy element-wise kernels), event
ties break exactly as the legacy loop's monotonic sequence numbers break
them (arrivals hold the smallest sequence numbers because the legacy
engine schedules them before any runtime event exists), and quirks such
as the ``oldest_enqueued_at or now`` head-wait guard are reproduced
verbatim.  The differential test harness
(``tests/service/test_engine_differential.py``) holds the two engines to
digest-for-digest equality over the canonical scenarios and a fuzzed
scenario space.

``columnar_ineligibility`` is the gate, and a fallback means one thing:
the fast path lacks a capability — faults, autoscaling, a control plane,
a dead node or non-replay version in a pool, a custom selection policy —
and the legacy path, which remains the scalar correctness oracle (the
same playbook as ``core/outcome_matrix.py`` for the rule generator),
finishes this run.  What *neither* loop can serve (a repeated id, an
unmeasured payload, a bad threshold, fast == accurate, an undeployed or
unrefillable empty pool) never reaches this module: ``drain()`` refuses
it with a typed error in front of both loops, and hands ``run_columnar``
the payload-to-row gather that refusal already performed.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Optional

import numpy as np

from repro.core.executor import require_confidence_threshold
from repro.service.load_balancer import (
    JoinShortestQueuePolicy,
    LeastBusyPolicy,
    RoundRobinPolicy,
)
from repro.service.simulation.replay import MeasurementReplayVersion
from repro.service.simulation.report import LoadTestReport, RecordColumns

__all__ = ["columnar_ineligibility", "run_columnar"]

#: Heap events are ``(time, tag, node, info)`` with
#: ``tag = (seq << 2) | code``: packing the event code into the
#: monotonic sequence number keeps heap ordering identical to the legacy
#: ``(time, seq)`` tuples (tags are unique and increase with ``seq``)
#: while saving one tuple slot per event in the hot loop.
_FLUSH = 0
_ONE_DONE = 1
_BATCH_DONE = 2

#: Per-request kind codes of the event flow; the two kinds that enqueue
#: both legs at arrival sort last (``kind >= _CONC``).
_SINGLE, _SEQ, _CONC, _ET = range(4)
_KIND_CODES = {"single": _SINGLE, "seq": _SEQ, "conc": _CONC, "et": _ET}

_SUPPORTED_POLICIES = (
    RoundRobinPolicy,
    JoinShortestQueuePolicy,
    LeastBusyPolicy,
)


class _ShadowNode:
    """Mutable per-node state of the columnar loop.

    Mirrors exactly the fields of :class:`~repro.service.node.ServiceNode`
    the fault-free event flow reads or writes; the accumulated values are
    written back to the real node when the run drains, so post-run
    introspection (utilization, billing reconciliation, reuse of the
    cluster) sees what the legacy engine would have left behind.
    """

    __slots__ = (
        "real",
        "queue",
        "busy_until",
        "busy_seconds",
        "served",
        "factor",
        "flush_seq",
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
        #: Cancellation is lazy, as in the legacy loop: a popped flush
        #: whose sequence number no longer matches is a stale timer.
        self.flush_seq = -1


def columnar_ineligibility(sim, configurations) -> Optional[str]:
    """The capability this run needs that the columnar path lacks
    (``None`` = it has them all), surfaced as
    ``ServingSimulator.fallback_reason``.

    Called after ``drain()`` refused what no loop can serve: every
    reason here is one after which the legacy engine — which *is* the
    semantics — completes the run.  A tier router is not a reason: the
    pool checks apply to each of the pre-pass's ``configurations``.
    """
    if sim._faults:
        # Name the fault classes so a chaos scenario's fallback is
        # attributable: "fault schedule present (GrayFailure, RetryStorm)".
        kinds = sorted({type(fault).__name__ for fault in sim._faults})
        return f"fault schedule present ({', '.join(kinds)})"
    if sim._autoscaler is not None:
        return "autoscaler attached"
    if sim.control is not None:
        return "control plane attached"
    balancer = sim.cluster.load_balancer
    for configuration in configurations:
        for version in configuration.versions:
            for node in balancer.nodes_of(version):
                if not node.alive:
                    return "dead node in pool"
                if not isinstance(node.version, MeasurementReplayVersion):
                    return "non-replay service version"
    if type(balancer._policy) not in _SUPPORTED_POLICIES:
        return (
            "unsupported selection policy "
            f"{type(balancer._policy).__name__}"
        )
    return None


def run_columnar(sim, configurations, codes, replay_rows) -> LoadTestReport:
    """Drain a columnar-eligible simulator and build its report.

    Call only after :func:`columnar_ineligibility` returned ``None``,
    with the routing pre-pass's ``(configurations, codes)`` and the
    ``replay_rows`` gather of ``ServingSimulator._refuse_unservable``;
    the submission columns are read from the simulator's store.  With
    invariant checking attached the loop calls the checker at the exact
    points the legacy engine would (it sees an identical stream); either
    way the report is built from the loop's columns and materializes
    records only when asked.
    """
    cluster = sim.cluster
    balancer = cluster.load_balancer
    checker = sim._check
    slow = checker is not None

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
    def _leg_columns(version: str, group: int):
        replay = balancer.nodes_of(version)[0].version
        ms = replay._measurements
        col = replay._column
        rows = replay_rows[group, id(replay._rows)]
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
    compute_fast_np = np.empty(n)
    conf_fast_np = np.empty(n)
    # A single-version request has no accurate leg: its accurate columns
    # stay zero / never-escalates and are never read.
    compute_acc_np = np.zeros(n)
    conf_acc_np = np.zeros(n)
    escalates_np = np.zeros(n, dtype=bool)
    for group, configuration in enumerate(configurations):
        members = groups[group]
        # (fast, accurate); a single-version policy has no accurate leg.
        versions = configuration.versions
        pair = versions if len(versions) == 2 else (versions[0], None)
        if pair not in pairs:
            pairs.append(pair)
        pair_np[members] = pairs.index(pair)
        kind_np[members] = _KIND_CODES[configuration.kind]
        compute_fast_np[members], confidence = _leg_columns(pair[0], group)
        conf_fast_np[members] = confidence
        if pair[1] is not None:
            compute_acc_np[members], conf_acc_np[members] = _leg_columns(
                pair[1], group
            )
            # should_escalate is a strict `confidence < threshold`.
            escalates_np[members] = confidence < require_confidence_threshold(
                configuration.policy
            )
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

    if slow:
        fast_name = per_request([pair[0] for pair in pairs])
        acc_name = per_request([pair[1] for pair in pairs])

    # ------------------------------------------------------------------
    # shadow cluster: one pool per version any pair names
    # ------------------------------------------------------------------
    pools = {
        version: [_ShadowNode(node) for node in balancer.nodes_of(version)]
        for version in dict.fromkeys(
            version for pair in pairs for version in pair if version is not None
        )
    }
    shadows = [node for pool in pools.values() for node in pool]

    # Node selection compiles to one zero-argument closure per pool, with
    # the pool (and, for the dominant two-node pools, the nodes
    # themselves) bound at build time.  Each closure reproduces the
    # corresponding legacy policy's scan exactly: first-best wins, later
    # nodes only on a strict improvement.
    selection = balancer._policy
    rr_states: List[tuple] = []

    def _compile_select(pool, version):
        if isinstance(selection, RoundRobinPolicy):
            n_pool = len(pool)
            state = [selection._cursor.get(version, 0)]
            rr_states.append((version, state))

            def sel_rr():
                index = state[0]
                if index >= n_pool:
                    index = 0
                state[0] = (index + 1) % n_pool
                return pool[index]

            return sel_rr
        if len(pool) == 1:
            only = pool[0]
            return lambda: only
        jsq = isinstance(selection, JoinShortestQueuePolicy)
        if len(pool) == 2:
            first, second = pool
            if jsq:

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

            def sel_lb2():
                if second.busy_seconds < first.busy_seconds:
                    return second
                return first

            return sel_lb2
        if jsq:

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

        def sel_lb():
            best = pool[0]
            best_busy = best.busy_seconds
            for node in pool:
                if node.busy_seconds < best_busy:
                    best = node
                    best_busy = node.busy_seconds
            return best

        return sel_lb

    selects = {
        version: _compile_select(pool, version)
        for version, pool in pools.items()
    }
    # Per request, the closure choosing its leg's node (``None`` where a
    # single-version request has no accurate leg).
    fast_select = per_request([selects[pair[0]] for pair in pairs])
    acc_select = per_request([selects.get(pair[1]) for pair in pairs])

    # The dominant shape — two-node pools under join-shortest-queue —
    # additionally gets its scan inlined at the two hottest call sites in
    # the event loop (arrival fast-leg, sequential escalation), saving a
    # closure call per selection.  That needs every request to share the
    # leg's pool; pool membership is static here: eligibility already
    # excluded autoscalers and fault schedules.
    _jsq = isinstance(selection, JoinShortestQueuePolicy)
    fast_a = fast_b = acc_a = acc_b = None
    fast_versions = {pair[0] for pair in pairs}
    acc_versions = {pair[1] for pair in pairs} - {None}
    if _jsq and len(fast_versions) == 1:
        pool_fast = pools[fast_versions.pop()]
        if len(pool_fast) == 2:
            fast_a, fast_b = pool_fast
    if _jsq and len(acc_versions) == 1:
        pool_acc = pools[acc_versions.pop()]
        if len(pool_acc) == 2:
            acc_a, acc_b = pool_acc

    # ------------------------------------------------------------------
    # loop state
    # ------------------------------------------------------------------
    batching = sim._batching
    max_batch = batching.max_batch_size
    max_wait = batching.max_wait_s
    # _maybe_start's epsilon guard, precomposed.
    wait_threshold = max_wait - 1e-12
    batch_time = batching.batch_service_time

    # Arrivals never enter the heap: the legacy engine schedules them all
    # before any runtime event exists, so they hold sequence numbers
    # 0..n-1 and win every time tie.  A stable sort by arrival time gives
    # exactly that order; runtime events count from n.
    order = sorted(range(n), key=times.__getitem__)
    sorted_times = [times[i] for i in order]

    heap: list = []
    seq = n - 1

    fast_done: List[Optional[tuple]] = [None] * n
    acc_done: List[Optional[tuple]] = [None] * n
    acc_node: List[Optional[_ShadowNode]] = [None] * n
    acc_cancelled = bytearray(n)

    #: Finalized rows, in completion order:
    #: (sub, end, escalated, fast_seconds, accurate_seconds, fast_start);
    #: accurate_seconds is -1.0 for "leg not billed" (never negative).
    out: List[tuple] = []

    # ------------------------------------------------------------------
    # event flow (each helper mirrors one legacy engine method)
    # ------------------------------------------------------------------
    def start_batch(node, now):
        # _start_batch for a multi-item batch (callers execute the
        # single-job shape inline): cancel any armed flush, pop up to
        # max_batch items, execute, schedule one completion event at the
        # common finish.  Every caller guarantees the node is idle
        # (busy_until <= now), so the batch starts exactly at `now` — as
        # the legacy node's max(now, busy_until) would resolve.
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
        if checker is not None:
            checker.on_attempt_started(request_ids[sub], acc_name[sub], 1, now)
        node = acc_select[sub]()
        node.queue.append((sub, 1, now))
        acc_node[sub] = node
        if node.busy_until <= now:
            maybe_start(node, now)

    def cancel_queued(node, sub, now):
        # _cancel_queued_job: remove the queued accurate job, drop the
        # (possibly stale) flush timer, re-arm from the new queue state.
        queue = node.queue
        for item in queue:
            if item[0] == sub and item[1] == 1:
                queue.remove(item)
                break
        else:
            return False
        node.flush_seq = -1
        if queue and node.busy_until <= now:
            maybe_start(node, now)
        return True

    def emit(sub, now):
        # The slow half of _finalize: the invariant checker's ledger.
        checker.on_finalized(request_ids[sub], now, failed=False)

    def deliver(sub, leg, start, finish, amortized, solo, now):
        # _on_job_done + _advance for the fault-free state machine.
        if checker is not None:
            checker.on_attempt_finished(
                request_ids[sub],
                fast_name[sub] if leg == 0 else acc_name[sub],
                1,
                finish,
                "ok",
                seconds=amortized,
            )
        kind = kind_of[sub]
        if kind == _SINGLE:
            out.append((sub, finish, False, amortized, -1.0, start))
            if slow:
                emit(sub, now)
            return
        if kind == _SEQ:
            if leg == 0:
                if escalates[sub]:
                    fast_done[sub] = (start, finish, amortized, solo)
                    enqueue_accurate(sub, now)
                else:
                    out.append((sub, finish, False, amortized, -1.0, start))
                    if slow:
                        emit(sub, now)
            else:
                fast = fast_done[sub]
                out.append((sub, finish, True, fast[2], amortized, fast[0]))
                if slow:
                    emit(sub, now)
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
                    if slow:
                        emit(sub, now)
                return
            if kind == _ET and accurate is None and not acc_cancelled[sub]:
                if cancel_queued(acc_node[sub], sub, now):
                    acc_cancelled[sub] = True
                    if checker is not None:
                        checker.on_attempt_finished(
                            request_ids[sub],
                            acc_name[sub],
                            1,
                            now,
                            "cancelled",
                        )
                    out.append((sub, finish, False, amortized, -1.0, start))
                    if slow:
                        emit(sub, now)
                    return
                # Already running: let it finish, bill the capped share.
            if accurate is None:
                return
            acc_seconds = accurate[2]
            if kind == _ET and solo < acc_seconds:
                # early_termination_cap: min(accurate, fast solo time)
                acc_seconds = solo
            out.append((sub, finish, False, amortized, acc_seconds, start))
            if slow:
                emit(sub, now)
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
            if slow:
                emit(sub, now)
        else:
            acc_seconds = amortized
            if kind == _ET and fast[3] < acc_seconds:
                acc_seconds = fast[3]
            out.append((sub, fast_finish, False, fast[2], acc_seconds, fast[0]))
            if slow:
                emit(sub, now)

    both_legs_at_arrival = max(kinds) >= _CONC
    # Specialized single-job delivery for the two sequential-flow kinds
    # in fast mode (no checker), when every request shares the kind: the
    # same transitions as deliver(), with the call and its branch ladder
    # inlined into the event loop below.
    inline_seq = kinds == {_SEQ} and not slow
    inline_single = kinds == {_SINGLE} and not slow
    out_append = out.append

    # ------------------------------------------------------------------
    # the loop (arrival handling inlined — it is the hottest edge)
    # ------------------------------------------------------------------
    pointer = 0
    while pointer < n or heap:
        if pointer < n and (not heap or sorted_times[pointer] <= heap[0][0]):
            now = sorted_times[pointer]
            sub = order[pointer]
            pointer += 1
            if checker is not None:
                checker.on_arrival(request_ids[sub], now)
                checker.on_attempt_started(request_ids[sub], fast_name[sub], 1, now)
            if fast_a is not None:
                depth_a = len(fast_a.queue)
                depth_b = len(fast_b.queue)
                if depth_b < depth_a or (
                    depth_b == depth_a
                    and fast_b.busy_until < fast_a.busy_until
                ):
                    node = fast_b
                else:
                    node = fast_a
            else:
                node = fast_select[sub]()
            node.queue.append((sub, 0, now))
            if node.busy_until <= now:
                maybe_start(node, now)
            if both_legs_at_arrival and kind_of[sub] >= _CONC:
                enqueue_accurate(sub, now)
            continue
        event = heappop(heap)
        now = event[0]
        tag = event[1]
        node = event[2]
        code = tag & 3
        if code == _ONE_DONE:
            sub, leg, solo, start = event[3]
            # amortized == wall / 1 == solo (x / 1 is exact)
            if inline_seq:
                if leg == 0:
                    if escalates[sub]:
                        fast_done[sub] = (start, now, solo, solo)
                        if acc_a is not None:
                            depth_a = len(acc_a.queue)
                            depth_b = len(acc_b.queue)
                            if depth_b < depth_a or (
                                depth_b == depth_a
                                and acc_b.busy_until < acc_a.busy_until
                            ):
                                acc = acc_b
                            else:
                                acc = acc_a
                        else:
                            acc = acc_select[sub]()
                        acc.queue.append((sub, 1, now))
                        if acc.busy_until <= now:
                            maybe_start(acc, now)
                    else:
                        out_append((sub, now, False, solo, -1.0, start))
                else:
                    fast = fast_done[sub]
                    out_append((sub, now, True, fast[2], solo, fast[0]))
            elif inline_single:
                out_append((sub, now, False, solo, -1.0, start))
            else:
                deliver(sub, leg, start, now, solo, solo, now)
            if node.queue:
                maybe_start(node, now)
        elif code == _FLUSH:
            if tag != node.flush_seq:
                continue  # stale timer, lazily cancelled
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
        else:
            items, solos, start, wall = event[3]
            k = len(items)
            amortized = wall / k
            for index in range(k):
                item = items[index]
                deliver(
                    item[0], item[1], start, now, amortized,
                    solos[index], now,
                )
            if node.queue:
                maybe_start(node, now)

    if len(out) != n:
        raise RuntimeError(
            f"event loop drained with {n - len(out)} requests unresolved"
        )

    # ------------------------------------------------------------------
    # write-back: the real cluster must end exactly as legacy leaves it
    # ------------------------------------------------------------------
    for shadow in shadows:
        real = shadow.real
        real.busy_until = shadow.busy_until
        real._busy_seconds = shadow.busy_seconds
        real._requests_served = shadow.served
    for version, state in rr_states:
        selection._cursor[version] = state[0]

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    n_out = len(out)
    o_sub, o_end, o_esc, o_fast, o_acc, o_fstart = zip(*out)
    sub_idx = np.fromiter(o_sub, dtype=np.int64, count=n_out)
    finished = np.fromiter(o_end, dtype=np.float64, count=n_out)
    escalated = np.fromiter(o_esc, dtype=bool, count=n_out)
    fast_seconds = np.fromiter(o_fast, dtype=np.float64, count=n_out)
    acc_seconds = np.fromiter(o_acc, dtype=np.float64, count=n_out)
    fast_starts = np.fromiter(o_fstart, dtype=np.float64, count=n_out)
    arrivals = np.asarray(times, dtype=np.float64)[sub_idx]
    tiers = np.asarray(store.tolerances, dtype=np.float64)[sub_idx]
    pair_codes = pair_np[sub_idx]
    # PricingModel.request_cost, vectorized with the same operation
    # order, each row priced by its own pair: cost_v = seconds_v *
    # price_v; iaas = fast + accurate (the legacy left fold starts
    # at integer 0, and 0 + x == x, x + 0.0 == x exactly for the
    # non-negative costs here); invocation = fee + markup * iaas.
    pricing = cluster.pricing
    price_of = {
        version: pricing.instance_for(version).price_per_second
        for version in pools
    }
    price_fast = np.array([price_of[pair[0]] for pair in pairs])
    price_acc = np.array([price_of.get(pair[1], 0.0) for pair in pairs])
    iaas = fast_seconds * price_fast[pair_codes] + np.where(
        acc_seconds >= 0.0, acc_seconds * price_acc[pair_codes], 0.0
    )
    invocation = pricing.per_request_fee + pricing.markup * iaas
    report_columns = RecordColumns(
        request_ids=[request_ids[i] for i in o_sub],
        payloads=[payloads[i] for i in o_sub],
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
        # conf_acc_np is only ever read where the request escalated.
        confidence=np.where(
            escalated, conf_acc_np[sub_idx], conf_fast_np[sub_idx]
        ),
    )
    report = LoadTestReport(
        columns=report_columns, final_pool_sizes=cluster.pool_sizes()
    )

    if checker is not None:
        checker.verify(report, cluster, sim._retry)
    return report
