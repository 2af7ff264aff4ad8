"""The discrete-event serving simulator.

:class:`ServingSimulator` layers a virtual-clock event loop over a live
:class:`~repro.service.cluster.ClusterDeployment`: requests arrive under an
offered-load process, a :class:`~repro.core.router.TierRouter` (or one
fixed configuration) decides which ensemble serves each of them, jobs join
per-node FIFO queues through the cluster's ``submit`` interface, nodes
execute them — solo or in sublinear batches — and an optional autoscaler
grows and shrinks the pools while traffic flows.  The output is a
:class:`~repro.service.simulation.report.LoadTestReport` with the tail
latencies and costs the replay benchmarks cannot see.

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
  probability, drawn from a dedicated fault RNG.

Failed attempts are re-driven under a
:class:`~repro.service.simulation.faults.RetryPolicy` (with backoff, onto
live nodes only); once a leg's attempts are exhausted the request fails
terminally — unless another leg can still answer: a confident fast result
makes an accurate-leg loss harmless, and under ``conc``/``et`` a live
accurate job answers for a dead fast leg (degraded fallback, billed
accurate-only).  When a whole pool is dead, its jobs park in the engine
until capacity returns (a recovery or an autoscaler scale-up); jobs still
parked when the event loop drains resolve with a confident fast answer
when one is in hand, and as failed requests otherwise.  A request that
fails is not billed.

Closed-loop runs attach a **control plane** (duck-typed; see
:class:`repro.service.control.plane.ControlPlane` — this module
deliberately imports nothing from that package): every finalized record
is published to the plane, every arrival consults admission (requests
may be *shed* — resolved unserved, first-class in the report — or
*force-degraded* to the fast tier), and a periodic control tick
evaluates SLOs and may hot-swap the active configuration onto the
adaptor's next rung.

Submissions wait in one store (parallel columns in submission order) and
:meth:`ServingSimulator.drain` validates once, in front of both loops:
what the deployment cannot serve at all — a repeated id, an unmeasured
payload, a bad threshold, fast == accurate, an undeployed or unrefillable
pool — is refused with a :class:`~repro.core.errors.TierError` before any
node is written.  Then the columnar loop
(:mod:`repro.service.simulation.columnar`) runs the load test; the
scalar event loop of this module, ``ServingSimulator._run_scalar``, is
its bit-identical reference, which only the test suite's oracle runs.

The event loop is single-threaded and deterministic: same seed, same
arrival process, same fault schedule, same report — fault-free runs
consume exactly the random draws and fire exactly the events the PR 1
engine did, so existing behaviour is bit-identical, and with
``control=None`` no control event is ever scheduled and no draw is ever
taken (the PR 3/4 golden digests stand).  Pass ``check_invariants=True``
to feed an
:class:`~repro.service.simulation.invariants.InvariantChecker` ledger and
reconcile it at drain time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    MissingVersionError,
    PolicyConfigurationError,
    RequestValidationError,
)
from repro.core.executor import (
    early_termination_cap,
    require_confidence_threshold,
    should_escalate,
)
from repro.core.router import TierRouter
from repro.service.cluster import ClusterDeployment
from repro.service.node import NodeCompletion, QueuedRequest, ServiceNode
from repro.service.request import (
    Objective,
    ServiceRequest,
    require_valid_tolerance,
)
from repro.service.simulation.arrivals import ArrivalProcess
from repro.service.simulation.autoscaler import Autoscaler, PoolScaling
from repro.service.simulation.batching import BatchingConfig
from repro.service.simulation.columnar import run_columnar
from repro.service.simulation.events import Event, EventLoop
from repro.service.simulation.faults import (
    ColdStartWave,
    CompletionFaults,
    FaultEvent,
    FaultLogEntry,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
    RetryPolicy,
    ThunderingHerd,
    affected_versions,
)
from repro.service.simulation.invariants import InvariantChecker
from repro.service.simulation.replay import MeasurementReplayVersion
from repro.service.simulation.report import LoadTestReport, RequestRecord

__all__ = ["ServingSimulator"]

#: Safety valve: no sane load test needs more events than this.
_MAX_EVENTS = 10_000_000

#: Generated request ids are deterministic ("load_%06d" over the
#: submission counter), so a process-wide cache amortizes string
#: formatting across runs — the bulk path's second-largest fixed cost.
_LOAD_ID_CACHE: List[str] = []


def _load_ids(base: int, count: int) -> List[str]:
    """``["load_%06d" % i for i in range(base, base + count)]``, memoized."""
    end = base + count
    cache = _LOAD_ID_CACHE
    if end > len(cache):
        cache.extend("load_%06d" % i for i in range(len(cache), end))
    return cache[base:end]


class _Submissions:
    """What the caller submitted: parallel columns in submission order.

    ``requests`` holds the caller's own :class:`ServiceRequest` where one
    was given (admission reads its ``metadata``) and ``None`` for a row
    :meth:`ServingSimulator.run` generated.
    """

    __slots__ = (
        "ids", "payloads", "tolerances", "objectives", "times", "requests"
    )

    def __init__(self) -> None:
        for column in self.__slots__:
            setattr(self, column, [])

    def extend(self, *columns) -> None:
        for name, values in zip(self.__slots__, columns):
            getattr(self, name).extend(values)


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


class ServingSimulator:
    """Event-driven load simulation over a cluster deployment.

    Exactly one of ``router`` / ``configuration`` selects how requests map
    to ensembles: a tier router serves each request according to its
    ``Tolerance`` / ``Objective`` annotation, while a fixed configuration
    models a conventional deployment (e.g. OSFA as a single-version
    configuration of the most accurate model).

    Submissions are always deferred and :meth:`drain` runs them on the
    vectorized loop in :mod:`repro.service.simulation.columnar` (router or
    fixed configuration alike, healthy or under any fault schedule,
    open-loop or closed, static or autoscaled pools, traced or not).  It
    replays measurements: :meth:`drain` refuses a pool that holds a dead
    node or a non-replay version.

    Args:
        cluster: The measurement-replay deployment whose queues and pools
            the simulation drives; within a pool each job joins the
            shortest queue
            (:meth:`~repro.service.load_balancer.LoadBalancer.select_node`).
        router: Tier router from the offline rule generator.
        configuration: Fixed ensemble configuration (mutually exclusive
            with ``router``).
        batching: Node-level batching policy; default is unbatched.
        autoscaler: Optional pool autoscaler, evaluated on its configured
            cadence while traffic is in flight.
        faults: Fault schedule injected on the virtual clock; empty for
            a healthy run.  Timed events
            (:class:`~repro.service.simulation.faults.NodeCrash`,
            :class:`~repro.service.simulation.faults.NodeSlowdown`,
            :class:`~repro.service.simulation.faults.GrayFailure`,
            :class:`~repro.service.simulation.faults.TransientFaults`,
            :class:`~repro.service.simulation.faults.RetryStorm`) fire at
            their timestamps; run-long policies
            (:class:`~repro.service.simulation.faults.CascadePolicy`,
            :class:`~repro.service.simulation.faults.ColdStartWave`)
            react to crashes and capacity joins; and
            :class:`~repro.service.simulation.faults.ThunderingHerd`
            transforms workloads generated via :meth:`run`.
        retry: How failed job attempts are re-driven; the default retries
            nothing (one attempt per leg).
        check_invariants: When true, feed an
            :class:`~repro.service.simulation.invariants.InvariantChecker`
            and verify its ledger at drain time.  Pure bookkeeping — the
            simulated behaviour (and report digest) is unchanged.
        control: Optional control plane (duck-typed against
            :class:`~repro.service.control.plane.ControlPlane`):
            consulted per arrival (``admit``), fed finalized records
            (``observe`` per record here; the columnar loop hands it the
            rows finalized since the last tick through ``observe_rows``,
            which a plane that loop drives must define), and ticked every ``tick_interval_s``
            on the virtual clock (``on_tick`` — a returned configuration
            is hot-swapped in as the active fixed configuration).
        trace: Optional trace recorder (duck-typed like ``control``; see
            :class:`repro.obs.record.SimTraceRecorder`).  On a run with a
            fault schedule or a control plane the loop drives its
            per-attempt hooks; any other run hands it the finished
            report's columns for post-hoc span reconstruction.  Attaching
            one never changes a report digest.
        seed: Seed for arrival sampling and payload choice (transient
            fault draws use a generator derived from it, so healthy and
            faulty runs see identical arrivals).
    """

    def __init__(
        self,
        cluster: ClusterDeployment,
        *,
        router: Optional[TierRouter] = None,
        configuration: Optional[EnsembleConfiguration] = None,
        batching: Optional[BatchingConfig] = None,
        autoscaler: Optional[Autoscaler] = None,
        faults: Sequence[FaultEvent] = (),
        retry: Optional[RetryPolicy] = None,
        check_invariants: bool = False,
        control=None,
        trace=None,
        seed: int = 0,
    ) -> None:
        #: Engine that drained the run, set by :meth:`drain`.
        self.engine_used: Optional[str] = None
        #: Everything submitted, read by drain().
        self._store = _Submissions()
        if (router is None) == (configuration is None):
            raise ValueError("supply exactly one of router / configuration")
        self.cluster = cluster
        # The engine owns the virtual timeline: any busy_until left behind
        # by synchronous replay traffic belongs to a different clock and
        # would deadlock _maybe_start (no completion event exists to wake
        # the node).  Queued work from outside the engine is refused.
        pending = {v: d for v, d in cluster.queue_depths().items() if d}
        if pending:
            raise ValueError(
                f"cluster has queued work {pending}; drain() it before "
                "building a ServingSimulator"
            )
        for version in cluster.load_balancer.versions:
            for node in cluster.load_balancer.nodes_of(version):
                node.busy_until = 0.0
        self._router = router
        self._configuration = configuration
        self._batching = batching or BatchingConfig()
        #: Every scaling action, decided for whichever loop drains
        #: (``None``: the pools are static).
        self._scaling = (
            PoolScaling(autoscaler, cluster.load_balancer)
            if autoscaler is not None
            else None
        )
        self._rng = np.random.default_rng(seed)
        self._loop = EventLoop()
        self._inflight: Dict[str, _InFlight] = {}
        self._records: List[RequestRecord] = []
        self._flush_events: Dict[str, Event] = {}
        self._running: Dict[str, _RunningBatch] = {}
        self._parked: Dict[str, List[QueuedRequest]] = {}
        self._remaining = 0
        self._counter = 0
        self._drained = False
        self._retry = retry or RetryPolicy()
        self._faults = tuple(faults)
        self._fault_log: List[FaultLogEntry] = []
        self._check = InvariantChecker() if check_invariants else None
        #: The live control plane driving this run (``None`` open-loop).
        self.control = control
        # Every call site guards on None: disabled costs one attribute test.
        if trace is not None and not hasattr(trace, "on_finalized"):
            from repro.obs.record import SimTraceRecorder

            trace = SimTraceRecorder(trace)
        self._trace = trace
        known = set(cluster.load_balancer.versions)
        for fault in self._faults:
            unknown = set(affected_versions(fault)) - known
            if unknown:
                raise ValueError(
                    f"fault {fault!r} targets unknown version(s) "
                    f"{sorted(unknown)}; deployed versions are {sorted(known)}"
                )
        self._cold_waves = [
            fault for fault in self._faults if isinstance(fault, ColdStartWave)
        ]
        self._herds = [
            fault for fault in self._faults if isinstance(fault, ThunderingHerd)
        ]
        #: Which completions fail, decided for whichever loop drains.
        self._failures = CompletionFaults(self._faults, seed)
        #: The herds' release entries, logged at each herd's end once
        #: run() has moved the arrivals it generated.
        self._releases: List[FaultLogEntry] = []
        #: node_id -> confidence multiplier while gray or warming up.
        self._deflate: Dict[str, float] = {}
        self._retries_denied = 0
        self._total_retries_planned = 0
        self._inflight_retries = 0
        # Per-node telemetry for gray-failure detection is duck-typed like
        # the rest of the control protocol: planes without observe_node
        # (and plain record hooks) simply never see node latencies.
        self._observe_node = (
            getattr(control, "observe_node", None)
            if control is not None
            else None
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _require_undrained(self) -> None:
        if self._drained:
            raise ValueError(
                "this ServingSimulator has already been drained; a simulator "
                "is single-use — build a new one for another load test"
            )

    def submit(self, request: ServiceRequest, *, at_time: float = 0.0) -> None:
        """Schedule one request's arrival: a one-element :meth:`submit_batch`."""
        self.submit_batch([request], [at_time])

    def submit_batch(
        self, requests: Sequence[ServiceRequest], at_times: Sequence[float]
    ) -> None:
        """Schedule each request's arrival at its virtual timestamp.

        Raises:
            ValueError: If the simulator has already been drained — a
                simulator is single-use (its clock, records and pool state
                belong to one load test); build a fresh one per test — or
                a time is past or not finite (nothing is scheduled then).
        """
        self._enqueue(
            [request.request_id for request in requests],
            [request.payload for request in requests],
            [request.tolerance for request in requests],
            [request.objective for request in requests],
            at_times,
            requests,
        )

    def submit_rows(
        self,
        request_ids: Sequence[str],
        payloads: Sequence[Any],
        at_times: Sequence[float],
        tolerances: Sequence[float],
        objectives: Sequence[Objective],
    ) -> None:
        """Schedule requests given as parallel columns, one row each.

        The row form of :meth:`submit_batch`: no :class:`ServiceRequest`
        is built, so each distinct tolerance gets the check its
        constructor would have made.  :meth:`run` and a region shard
        submit through here.

        Raises:
            ValueError: As :meth:`submit_batch`, or if a tolerance is
                NaN, infinite or negative (nothing is scheduled then).
        """
        # Rows mostly share one annotation: count() settles that in one
        # C-level scan, where collecting distinct values hashes every row.
        if tolerances and tolerances.count(tolerances[0]) == len(tolerances):
            distinct = tolerances[:1]
        else:
            distinct = dict.fromkeys(tolerances)
        for tolerance in distinct:
            require_valid_tolerance(tolerance)
        self._enqueue(
            request_ids,
            payloads,
            tolerances,
            objectives,
            at_times,
            [None] * len(request_ids),
        )

    def _enqueue(
        self, ids, payloads, tolerances, objectives, at_times, requests
    ) -> None:
        """Append rows to the submission store: all of them, or none."""
        self._require_undrained()
        # Every submission is deferred: a replay into the scalar event
        # loop schedules arrivals in this same order, after the fault
        # onsets and herd releases, so they take the sequence numbers
        # (hence the tie-breaks) of an immediate schedule.  The validation the loop would have done at schedule
        # time happens here.
        now = self._loop.now
        for at_time in at_times:
            if not now <= at_time < math.inf:
                raise ValueError(
                    f"cannot schedule at t={at_time:.6f} before now={now:.6f}"
                    if at_time < now
                    else f"cannot schedule at t={at_time}: not a finite time"
                )
        self._store.extend(
            ids, payloads, tolerances, objectives, at_times, requests
        )
        self._remaining += len(ids)

    def run(
        self,
        arrivals: ArrivalProcess,
        n_requests: int,
        *,
        tolerance: float = 0.0,
        objective: Objective = Objective.RESPONSE_TIME,
        payload_ids: Optional[Sequence[Any]] = None,
    ) -> LoadTestReport:
        """Generate a workload, submit it, and drain it to a report.

        Args:
            arrivals: Arrival process generating the offered load.
            n_requests: Number of requests to simulate.
            tolerance: ``Tolerance`` annotation on every request.
            objective: ``Objective`` annotation on every request.
            payload_ids: Pool of payloads (measured request ids, for replay
                clusters) sampled uniformly per arrival; defaults to each
                request's own id.

        Raises:
            ValueError: If the simulator has already been drained (see
                :meth:`submit`) or ``tolerance`` names no tier (see
                :meth:`submit_rows`).
        """
        self._require_undrained()
        times = arrivals.times(n_requests, self._rng)
        # Thundering herds transform the generated workload *after*
        # sampling: the base process consumes exactly its usual draws,
        # then arrivals inside each hold window slide to the window's
        # end.  Requests submitted via submit() bypass run() and are
        # never held.
        for herd in self._herds:
            self._releases.append(herd.release_entry(herd.held(times)))
            times = herd.apply(times)
        if payload_ids is not None:
            ids = list(payload_ids)
            if not ids:
                raise ValueError("payload_ids must be non-empty when given")
            picks = self._rng.integers(0, len(ids), size=n_requests)
        at_times = (
            times.tolist()
            if isinstance(times, np.ndarray)
            else [float(t) for t in times]
        )
        # The workload joins the store as rows with one annotation and no
        # ServiceRequest — object construction dominated the submit
        # phase.  Ids are formatted exactly as per-request submission
        # would, and an event-loop drain builds field-identical requests
        # from the rows.
        count = len(at_times)
        request_ids = _load_ids(self._counter, count)
        self.submit_rows(
            request_ids,
            [ids[p] for p in picks[:count].tolist()]
            if payload_ids is not None
            else request_ids,
            at_times,
            [tolerance] * count,
            [objective] * count,
        )
        self._counter += count
        report = self.drain()
        span = float(times[-1] - times[0])
        report.offered_rate = n_requests / span if span > 0.0 else None
        return report

    def _route_submissions(
        self,
    ) -> Tuple[List[EnsembleConfiguration], Optional[List[int]]]:
        """The routing pre-pass of a drain, on either engine.

        Returns ``(configurations, codes)``: the distinct configurations
        serving the submission store's rows and, per row, the index of
        its own — ``codes`` is ``None`` when one configuration serves
        them all.  Each distinct ``(tolerance, objective)`` annotation is
        routed once, in order of its earliest arrival, so a request the
        router cannot serve raises what the event loop's first failing
        arrival would have raised — here, before any node or cursor
        state is written.
        """
        if self._configuration is not None:
            return [self._configuration], None
        store = self._store
        annotations = list(zip(store.tolerances, store.objectives))
        #: annotation -> (its earliest arrival, that row's index)
        first: Dict[Tuple[float, Any], Tuple[float, int]] = {}
        for index, (annotation, at_time) in enumerate(
            zip(annotations, store.times)
        ):
            if annotation not in first or at_time < first[annotation][0]:
                first[annotation] = at_time, index
        configurations: List[EnsembleConfiguration] = []
        group_of: Dict[Tuple[float, Any], int] = {}
        for annotation in sorted(first, key=first.__getitem__):
            configuration = self._router.route(*annotation)
            if configuration not in configurations:
                configurations.append(configuration)
            group_of[annotation] = configurations.index(configuration)
        if len(configurations) == 1:
            return configurations, None
        return configurations, [group_of[a] for a in annotations]

    def _refuse_unservable(
        self,
        configurations: List[EnsembleConfiguration],
        codes: Optional[List[int]],
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """The door: refuse what neither loop can serve, before either runs.

        One pass over the submission store and the routed configurations,
        whichever loop then runs.  Every refusal is a
        :class:`~repro.core.errors.TierError` — a repeated id or an
        unmeasured payload (``RequestValidationError``), a threshold
        missing or outside ``[0, 1]`` or fast == accurate
        (``PolicyConfigurationError``), a version that is not deployed or
        whose pool has no live node while no autoscaler can add one
        (``MissingVersionError``; no fault refills an empty pool: a crash
        there is a logged no-op, so its replacement never joins), a
        deployed pool holding a dead node (one killed without
        ``ClusterDeployment.kill_node``) or a node (an emptied pool's
        refill) whose version is not a measurement replay
        (``MissingVersionError``) — raised before any node, clock or RNG
        is touched.  Returns the
        payload-to-row gather the pass performed, ``{(group, id(table)):
        rows}`` per replay table a leg of routed group ``group`` reads:
        what :func:`run_columnar` composes its leg columns from.
        """
        store = self._store
        if len(set(store.ids)) != len(store.ids):
            seen: set = set()
            repeated = next(i for i in store.ids if i in seen or seen.add(i))
            raise RequestValidationError(f"duplicate request id {repeated!r}")
        if codes is None:
            payloads = [store.payloads]
        else:
            payloads = [[] for _ in configurations]
            for payload, code in zip(store.payloads, codes):
                payloads[code].append(payload)
        balancer = self.cluster.load_balancer
        for version in balancer.versions:
            for index, node in enumerate(balancer.nodes_of(version)):
                if not node.alive:
                    raise MissingVersionError(
                        f"node {index} of version {version!r}'s pool is dead "
                        "but was never evicted (crash nodes through "
                        "ClusterDeployment.kill_node)"
                    )
                if not isinstance(node.version, MeasurementReplayVersion):
                    raise MissingVersionError(
                        f"node {index} of version {version!r}'s pool runs "
                        f"{type(node.version).__name__}, not a "
                        "MeasurementReplayVersion: the simulator replays "
                        "measurements"
                    )
        static_capacity = self._scaling is None
        rows_of: Dict[Tuple[int, int], np.ndarray] = {}
        for group, configuration in enumerate(configurations):
            versions = configuration.versions
            needs = f"configuration {configuration.name!r} needs version"
            if configuration.kind != "single":
                require_confidence_threshold(configuration.policy)
                if versions[0] == versions[1]:
                    raise PolicyConfigurationError(
                        f"{needs} {versions[0]!r} as both fast and accurate"
                    )
            for version in versions:
                if version not in balancer.versions:
                    raise MissingVersionError(
                        f"{needs} {version!r}, which the cluster does not "
                        f"deploy (available: {sorted(balancer.versions)})"
                    )
                if static_capacity and not balancer.live_pool_size(version):
                    raise MissingVersionError(
                        f"{needs} {version!r}, whose pool has no live node "
                        "and no autoscaler to add one"
                    )
                # An emptied pool's legs read the replay its refills serve.
                refill = [self.cluster._pool_specs[version].version]
                for replay in [n.version for n in balancer.nodes_of(version)] or refill:
                    if not isinstance(replay, MeasurementReplayVersion):
                        raise MissingVersionError(
                            f"{needs} {version!r}, whose emptied pool refills "
                            f"with {type(replay).__name__}, not a replay"
                        )
                    if (group, id(replay._rows)) in rows_of:
                        continue
                    try:
                        rows_of[group, id(replay._rows)] = np.fromiter(
                            map(replay._rows.__getitem__, payloads[group]),
                            dtype=np.int64,
                            count=len(payloads[group]),
                        )
                    except (KeyError, TypeError) as exc:
                        # KeyError carries the key, TypeError "unhashable".
                        raise RequestValidationError(
                            f"payload {exc.args[0]!r} does not name a "
                            "measured request id"
                        ) from None
        return rows_of

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def drain(self) -> LoadTestReport:
        """Run the submitted load test until every request has resolved.

        A request resolves by completing or by failing terminally; jobs
        still parked behind dead pools when the loop empties resolve as
        failed requests (capacity never came back for them).  A drained
        simulator, an empty store (``ValueError``) and what the
        deployment cannot serve at all (a ``TierError``, see
        :meth:`_refuse_unservable`) are refused first, with nothing run.
        Then the columnar loop runs the load test: fault schedules,
        control planes and autoscalers are its event sources, and a trace
        recorder is fed by it.
        """
        self._require_undrained()
        store = self._store
        if not store.ids:
            raise ValueError("a load test report needs at least one record")
        configurations, codes = self._route_submissions()
        replay_rows = self._refuse_unservable(configurations, codes)
        # Let through: the simulator's one load test starts here, and a
        # loop that dies halfway leaves it spent, not re-drainable.
        self._drained = True
        report = run_columnar(
            self, configurations, codes, replay_rows, max_events=_MAX_EVENTS
        )
        self.engine_used = report.engine_used
        self._remaining = 0
        if self._trace is not None:
            self._trace.on_run_complete(report.fault_log, report.control_log)
        return report

    def _run_scalar(
        self, configurations, codes, replay_rows, *, max_events: int
    ) -> LoadTestReport:
        """The scalar event loop, :func:`run_columnar`'s reference: same
        arguments, same report.  ``drain()`` never calls it; the test
        suite's oracle puts it in ``run_columnar``'s place."""
        # The store in submission order, a ServiceRequest built only for a
        # row without one; a fixed configuration is read at arrival.
        store = self._store
        # Fault onsets, then herd releases, then the arrivals, as the
        # columnar loop's onset stream orders them.
        self._schedule_faults()
        for entry in self._releases:
            self._log_at(entry, "fault-herd")
        for index, request in enumerate(store.requests):
            if request is None:
                request = ServiceRequest(
                    request_id=store.ids[index],
                    payload=store.payloads[index],
                    tolerance=store.tolerances[index],
                    objective=store.objectives[index],
                )
            routed = (
                None
                if self._configuration is not None
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
                            state.fast_version: fast.amortized_seconds
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

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._loop.now

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
        configuration = routed if routed is not None else self._configuration
        degraded = False
        if self.control is not None:
            decision = self.control.admit(
                request, self._loop.now, planned=configuration
            )
            action = decision.action.value
            if action == "shed":
                if self._trace is not None:
                    self._trace.on_admission(
                        request.request_id,
                        "shed",
                        getattr(decision, "reason", "") or "",
                        self._loop.now,
                    )
                self._shed_request(request)
                return
            if action == "degrade" and decision.configuration is not None:
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
        record = RequestRecord.for_shed(request, now)
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
        node = self.cluster.submit(version, state.request, now=now)
        self._maybe_start(node)
        return node

    def _maybe_start(self, node: ServiceNode) -> None:
        """Start a batch on an idle node, or arm its flush timer."""
        now = self._loop.now
        if node.queue_depth == 0 or node.busy_until > now:
            # Busy nodes restart from their batch-completion event.
            return
        cfg = self._batching
        head_wait = now - (node.oldest_enqueued_at or now)
        if (
            node.queue_depth >= cfg.max_batch_size
            or cfg.max_wait_s <= 0.0
            or head_wait >= cfg.max_wait_s - 1e-12
        ):
            self._start_batch(node)
        elif node.node_id not in self._flush_events:
            deadline = node.oldest_enqueued_at + cfg.max_wait_s
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
                seconds=completion.amortized_seconds,
            )
        if self._trace is not None:
            node = (
                state.accurate_node
                if version == state.accurate_version
                else state.fast_node
            )
            self._trace.on_attempt_done(
                request_id, version, completion.started_at, completion.finished_at,
                completion.amortized_seconds, completion.batch_size,
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
            target.requeue(item)
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
            node.requeue(item)
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
            self._retries_denied += 1
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
                node_seconds={state.fast_version: fast.amortized_seconds},
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
                state.accurate_version: accurate.amortized_seconds
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
                    node_seconds={state.fast_version: fast.amortized_seconds},
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
                node_seconds={state.fast_version: fast.amortized_seconds},
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
                    state.fast_version: fast.amortized_seconds,
                    state.accurate_version: accurate.amortized_seconds,
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
                    node_seconds={state.fast_version: fast.amortized_seconds},
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
                    state.fast_version: fast.amortized_seconds,
                    state.accurate_version: accurate.amortized_seconds,
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
                    node_seconds={state.fast_version: fast.amortized_seconds},
                )
                return
            # Already running: let it finish and bill the bounded share.
        if accurate is None:
            return
        accurate_seconds = accurate.amortized_seconds
        if state.kind == "et":
            accurate_seconds = early_termination_cap(
                accurate_seconds, fast.solo_time_s
            )
        self._finalize(
            state,
            end=fast.finished_at,
            node_seconds={
                state.fast_version: fast.amortized_seconds,
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
        if node is None or not node.cancel(request_id):
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
            self._apply_configuration(swap)
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

    def _apply_configuration(self, configuration: EnsembleConfiguration) -> None:
        """Hot-swap the active fixed configuration (adaptor-driven).

        Later arrivals route through the new configuration; requests
        already in flight finish under the one they started with.
        """
        if self._configuration is None:
            raise ValueError(
                "cannot hot-swap a configuration into a router-driven "
                "simulation; the adaptor only anchors on fixed "
                "configurations"
            )
        unknown = set(configuration.versions) - set(
            self.cluster.load_balancer.versions
        )
        if unknown:
            raise ValueError(
                f"hot-swapped configuration {configuration.config_id!r} "
                f"needs undeployed version(s) {sorted(unknown)}"
            )
        self._configuration = configuration

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
            lambda version: self.cluster.remove_node(version, now=now),
        )
        if self._remaining > 0:
            self._loop.schedule(
                self._scaling.interval, self._on_autoscale_tick, kind="autoscale"
            )
