"""The discrete-event serving simulator.

:class:`ServingSimulator` layers a virtual-clock event loop over a live
:class:`~repro.service.cluster.ClusterDeployment`: requests arrive under an
offered-load process, a :class:`~repro.core.router.TierRouter` (or one
fixed configuration) decides which ensemble serves each of them, jobs join
per-node FIFO queues (the shortest in their pool), nodes execute them —
solo or in sublinear batches — and an optional autoscaler grows and
shrinks the pools while traffic flows.  The output is a
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
deliberately imports nothing from that package): every arrival consults
admission (requests may be *shed* — resolved unserved, first-class in
the report — or *force-degraded* to the fast tier), and a periodic
control tick publishes the records finalized since the last one to the
plane, evaluates SLOs and may hot-swap the active configuration onto
the adaptor's next rung.

Submissions wait in one store (parallel columns in submission order) and
:meth:`ServingSimulator.drain` validates once, before the loop runs:
what the deployment cannot serve at all — a repeated id, an unmeasured
payload, a bad threshold, fast == accurate, an undeployed or unrefillable
pool — is refused with a :class:`~repro.core.errors.TierError` before any
node is written.  Then the one loop,
:func:`~repro.service.simulation.columnar.run_columnar`, runs the load
test; its bit-identical scalar reference lives in the test suite
(``tests/oracle/scalar_loop.py``).

The event loop is single-threaded and deterministic: same seed, same
arrival process, same fault schedule, same report — fault-free runs
consume exactly the random draws and fire exactly the events the first
engine did, so existing behaviour is bit-identical, and with
``control=None`` no control event is ever scheduled and no draw is ever
taken (the golden digests stand).  Pass ``check_invariants=True``
to feed an
:class:`~repro.service.simulation.invariants.InvariantChecker` ledger and
reconcile it at drain time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    MissingVersionError,
    PolicyConfigurationError,
    RequestValidationError,
)
from repro.core.executor import require_confidence_threshold
from repro.core.router import TierRouter
from repro.service.cluster import ClusterDeployment
from repro.service.request import (
    Objective,
    ServiceRequest,
    require_valid_tolerance,
)
from repro.service.simulation.arrivals import ArrivalProcess
from repro.service.simulation.autoscaler import Autoscaler, PoolScaling
from repro.service.simulation.batching import BatchingConfig
from repro.service.simulation.columnar import run_columnar
from repro.service.simulation.faults import (
    CompletionFaults,
    FaultEvent,
    FaultLogEntry,
    RetryPolicy,
    ThunderingHerd,
    affected_versions,
)
from repro.service.simulation.invariants import InvariantChecker
from repro.service.simulation.replay import MeasurementReplayVersion
from repro.service.simulation.report import LoadTestReport

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
            and verify its ledger at drain time.  A checked run takes the
            loop's stepwise machine, which calls every checker hook; its
            simulated behaviour (and report digest) is the unchecked
            run's.
        control: Optional control plane (duck-typed against
            :class:`~repro.service.control.plane.ControlPlane`):
            consulted per arrival (``admit``), handed the rows finalized
            since the last tick (``observe_rows``, which the plane must
            define), and ticked every ``tick_interval_s`` on the virtual
            clock (``on_tick`` — a returned configuration is hot-swapped
            in as the active fixed configuration).
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
        # would keep the node from ever starting a job (no completion
        # event exists to wake it).  Queued work from outside the engine
        # is refused.
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
        self._counter = 0
        self._drained = False
        self._retry = retry or RetryPolicy()
        self._faults = tuple(faults)
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
        self._herds = [
            fault for fault in self._faults if isinstance(fault, ThunderingHerd)
        ]
        #: Which completions fail, decided for whichever loop drains.
        self._failures = CompletionFaults(self._faults, seed)
        #: The herds' release entries, logged at each herd's end once
        #: run() has moved the arrivals it generated.
        self._releases: List[FaultLogEntry] = []
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
        # Every submission is deferred: nothing has run, so the virtual
        # clock still reads 0.0 and an arrival may be at any finite time
        # from there on.
        for at_time in at_times:
            if not 0.0 <= at_time < math.inf:
                raise ValueError(
                    f"cannot schedule at t={at_time:.6f} before now=0.000000"
                    if at_time < 0.0
                    else f"cannot schedule at t={at_time}: not a finite time"
                )
        self._store.extend(
            ids, payloads, tolerances, objectives, at_times, requests
        )

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
        if self._trace is not None:
            self._trace.on_run_complete(report.fault_log, report.control_log)
        return report

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
