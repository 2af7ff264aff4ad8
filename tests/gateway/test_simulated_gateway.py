"""Gateway traffic through the virtual-clock engine, faults included.

Two contracts are pinned here:

* **Determinism** — a gateway-driven load test over
  ``SimulatedBackend.from_scenario`` produces exactly the report a direct
  :func:`~repro.service.simulation.scenarios.run_scenario` call does
  (byte-identical digest), under a PR 3 fault scenario with the
  conservation-law invariant checker enabled.  The public API *is* the
  load-test surface now, at zero behavioural drift.
* **Session semantics** — explicit ``submit``/``drain`` sessions resolve
  tickets from the engine's report: successful requests carry the
  answering result and confidence, requests the scenario killed raise
  :class:`~repro.core.errors.RequestFailedError`, and the session is
  single-use.
"""


import numpy as np
import pytest

from oracle.scalar import default_loop, outcome
from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    BackendCapabilityError,
    GatewayClosedError,
    RequestFailedError,
    RequestShedError,
    RequestValidationError,
    ResultPendingError,
    UnknownObjectiveError,
)
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    BatchingConfig,
    LoadTestReport,
    NodeCrash,
    RecordColumns,
    RequestRecord,
    build_replay_cluster,
)
from repro.service.simulation.scenarios import (
    canonical_scenarios,
    run_scenario,
    scenario_measurements,
)


@pytest.fixture(scope="module")
def measurements():
    return scenario_measurements()


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", ["node-crash", "flaky", "baseline"])
    def test_gateway_load_matches_run_scenario(self, name, measurements):
        spec = canonical_scenarios()[name]
        reference = run_scenario(spec, measurements, check_invariants=True)

        backend = SimulatedBackend.from_scenario(
            spec, measurements, check_invariants=True
        )
        gateway = TierGateway(backend, configuration=spec.configuration)
        report = gateway.run_load(
            spec.arrivals,
            spec.n_requests,
            tolerance=spec.tolerance,
            objective=spec.objective,
            payload_ids=measurements.request_ids,
        )
        assert report.digest() == reference.digest()
        assert backend.last_report is report

    def test_run_load_closes_the_session(self, measurements):
        spec = canonical_scenarios()["baseline"]
        gateway = TierGateway(
            SimulatedBackend.from_scenario(spec, measurements),
            configuration=spec.configuration,
        )
        gateway.run_load(
            spec.arrivals,
            spec.n_requests,
            tolerance=spec.tolerance,
            payload_ids=measurements.request_ids,
        )
        with pytest.raises(GatewayClosedError):
            gateway.submit(ServiceRequest(request_id="late", payload="r000"))

    def test_run_load_refuses_a_dirty_session(self, measurements):
        spec = canonical_scenarios()["baseline"]
        gateway = TierGateway(
            SimulatedBackend.from_scenario(spec, measurements),
            configuration=spec.configuration,
        )
        gateway.submit(
            ServiceRequest(request_id="r", payload="r000"), at_time=0.0
        )
        with pytest.raises(GatewayClosedError, match="fresh session"):
            gateway.run_load(
                spec.arrivals, 5, payload_ids=measurements.request_ids
            )


def _session(measurements, *, faults=(), payloads, check_invariants=True):
    """A submit/drain gateway session over a seq(fast, slow, 0.6) tier."""
    cluster = build_replay_cluster(measurements, {"fast": 1, "slow": 1})
    backend = SimulatedBackend(
        cluster, faults=faults, check_invariants=check_invariants, seed=5
    )
    gateway = TierGateway(
        backend,
        configuration=EnsembleConfiguration(
            "cfg_seq", SequentialPolicy("fast", "slow", 0.6)
        ),
    )
    tickets = [
        gateway.submit(
            ServiceRequest(request_id=f"c{i:02d}", payload=payload),
            at_time=0.1 * i,
        )
        for i, payload in enumerate(payloads)
    ]
    return gateway, tickets


def _split_payloads(measurements):
    """Measured ids whose fast confidence clears / misses the 0.6 gate."""
    fast_conf = measurements.confidence[:, measurements.version_index("fast")]
    confident = measurements.request_ids[int(np.argmax(fast_conf))]
    escalating = measurements.request_ids[int(np.argmin(fast_conf))]
    assert fast_conf[int(np.argmax(fast_conf))] >= 0.6
    assert fast_conf[int(np.argmin(fast_conf))] < 0.6
    return confident, escalating


class TestSubmitDrainSession:
    def test_healthy_session_resolves_all_tickets(self, measurements):
        confident, escalating = _split_payloads(measurements)
        gateway, tickets = _session(
            measurements, payloads=[confident, escalating, confident]
        )
        assert not any(t.done for t in tickets)
        with pytest.raises(ResultPendingError):
            tickets[0].result()

        responses = gateway.drain()
        assert len(responses) == 3
        assert all(t.ok for t in tickets)
        # The confident request answered from the fast version; the
        # escalated one answered with the accurate result.
        assert tickets[0].result().versions_used == ("fast",)
        assert tickets[1].result().versions_used == ("fast", "slow")
        assert tickets[1].result().confidence == pytest.approx(0.95)
        # Replay versions echo the measured payload as the output.
        assert tickets[0].result().result == confident
        assert tickets[0].result().response_time_s > 0.0
        assert all(r.invocation_cost > 0.0 for r in responses)

    def test_fault_scenario_fails_escalated_tickets(self, measurements):
        confident, escalating = _split_payloads(measurements)
        # The accurate pool dies before anything completes and never
        # recovers: escalated requests park forever and fail at drain;
        # confident fast answers survive.
        gateway, tickets = _session(
            measurements,
            faults=(NodeCrash(at_s=0.01, version="slow", node_index=0),),
            payloads=[confident, escalating, confident, escalating],
        )
        responses = gateway.drain()

        survivors = [tickets[0], tickets[2]]
        casualties = [tickets[1], tickets[3]]
        assert all(t.ok for t in survivors)
        assert all(t.done and not t.ok for t in casualties)
        for ticket in casualties:
            with pytest.raises(RequestFailedError) as excinfo:
                ticket.result()
            assert excinfo.value.record is not None
            assert excinfo.value.record.failed
        assert {r.request_id for r in responses} == {
            t.request.request_id for t in survivors
        }
        report = gateway.backend.last_report
        assert report.n_failed == 2
        assert report.availability == pytest.approx(0.5)

    def test_session_is_single_use(self, measurements):
        confident, _ = _split_payloads(measurements)
        gateway, _tickets = _session(measurements, payloads=[confident])
        gateway.drain()
        with pytest.raises(GatewayClosedError):
            gateway.drain()
        with pytest.raises(GatewayClosedError):
            gateway.submit(ServiceRequest(request_id="x", payload=confident))

    def test_handle_refused_on_simulated_backend(self, measurements):
        confident, _ = _split_payloads(measurements)
        gateway, _tickets = _session(measurements, payloads=[confident])
        with pytest.raises(BackendCapabilityError, match="synchronous"):
            gateway.handle(ServiceRequest(request_id="x", payload=confident))


class _CannedBackend:
    """A deferred backend whose drain hands back a prepared report —
    every ticket outcome in one session, whatever the engine would do."""

    synchronous = False
    versions = None

    def __init__(self, records=(), *, columns=None):
        self._records = records
        self._columns = columns
        self.submitted = []

    def submit_batch(self, requests, at_times):
        self.submitted += [request.request_id for request in requests]

    def drain(self):
        return LoadTestReport(records=self._records, columns=self._columns)


def _canned_record(request_id, finished_s, **outcome):
    fields = dict(
        request_id=request_id,
        payload=request_id,
        tier=0.0,
        arrival_s=0.0,
        finished_s=finished_s,
        response_time_s=finished_s,
        queue_wait_s=0.0,
        versions_used=("fast",),
        escalated=False,
        invocation_cost=1e-6,
        node_seconds={"fast": 0.25},
        result=f"answer-{request_id}",
        confidence=0.9,
    )
    fields.update(outcome)
    if fields.get("failed") or fields.get("shed"):
        # What every producer emits for an unanswered request.
        fields.update(versions_used=(), node_seconds={})
    return RequestRecord(**fields)


def _canned_columns(records):
    """The records transposed into the columnar engine's product (a
    column row's result is its payload; every row is a one-pair row)."""

    def column(name, dtype=float):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    return RecordColumns(
        request_ids=[r.request_id for r in records],
        payloads=[r.result for r in records],
        tier=column("tier"),
        arrival_s=column("arrival_s"),
        finished_s=column("finished_s"),
        response_time_s=column("response_time_s"),
        queue_wait_s=column("queue_wait_s"),
        escalated=column("escalated", bool),
        invocation_cost=column("invocation_cost"),
        pairs=[("fast", "slow")],
        pair_code=np.zeros(len(records), dtype=np.uint8),
        node_seconds_fast=np.full(len(records), 0.25),
        node_seconds_accurate=np.full(len(records), -1.0),
        confidence=column("confidence"),
        failed=column("failed", bool),
        retries=column("retries", np.int64),
        shed=column("shed", bool),
    )


def _mixed_session(backend):
    """Submit a..f to a canned backend and drain it:
    ``(tickets by name, responses)``."""
    gateway = TierGateway(
        backend,
        configuration=EnsembleConfiguration(
            "cfg_seq", SequentialPolicy("fast", "slow", 0.6)
        ),
    )
    tickets = {
        name: gateway.submit(ServiceRequest(name, name, tolerance=0.02))
        for name in "abcdef"
    }
    return tickets, gateway.drain()


def _mixed_records(**b_outcome):
    """Submission order a..f; the report completes e, c, b, a, f (a
    failed after 1 retry, c shed, f failed after 3), mentions a stranger
    and never mentions d."""
    return [
        _canned_record("e", 0.1),
        _canned_record("c", 0.2, shed=True),
        _canned_record("b", 0.3, **b_outcome),
        _canned_record("a", 0.4, failed=True, retries=1),
        _canned_record("f", 0.5, failed=True, retries=3),
        _canned_record("stranger", 0.6),
    ]


class TestDrainWalksTheReportOnce:
    def test_failed_shed_and_record_less_tickets_in_one_session(self):
        records = _mixed_records(confidence=None)
        records[0] = _canned_record(
            "e",
            0.1,
            escalated=True,
            versions_used=("fast", "slow"),
            node_seconds={"fast": 0.25, "slow": 0.5},
        )
        tickets, responses = _mixed_session(_CannedBackend(records))

        # Responses: the answered requests, in completion order.
        assert [r.request_id for r in responses] == ["e", "b"]
        assert responses[0] is tickets["e"].result()
        assert tickets["b"].result().result == "answer-b"
        assert tickets["b"].result().versions_used == ("fast",)
        assert tickets["b"].result().confidence == 1.0
        assert tickets["e"].result().versions_used == ("fast", "slow")
        assert tickets["e"].result().confidence == 0.9
        assert tickets["e"].result().tier == 0.02
        assert all(t.done for t in tickets.values())
        assert [n for n, t in tickets.items() if t.ok] == ["b", "e"]
        # Failures are structured and carry their record (the very one
        # the backend reported).
        for name, retries, index in (("a", 1, 3), ("f", 3, 4)):
            error = tickets[name].exception()
            assert type(error) is RequestFailedError
            assert error.record.retries == retries
            assert error.record is records[index]
        assert "after 1 retry" in str(tickets["a"].exception())
        assert "after 3 retries" in str(tickets["f"].exception())
        shed = tickets["c"].exception()
        assert isinstance(shed, RequestShedError) and shed.record.shed
        missing = tickets["d"].exception()
        assert type(missing) is RequestFailedError and missing.record is None
        assert "produced no record" in str(missing)

    def test_column_backed_report_resolves_the_same_session(self):
        """The same six outcomes from ``LoadTestReport(columns=...)``:
        same responses, errors and ``error.record`` contents as the record
        walk gives for the records those columns hold."""
        columns = _canned_columns(_mixed_records())
        by_column = _mixed_session(_CannedBackend(columns=columns))
        rows = [columns.record(i) for i in range(len(columns))]
        by_record = _mixed_session(_CannedBackend(rows))

        assert by_column[1] == by_record[1]
        assert [r.request_id for r in by_column[1]] == ["e", "b"]
        for name, ticket in by_column[0].items():
            _assert_same_ticket(ticket, by_record[0][name])
        errors = {n: t.exception() for n, t in by_column[0].items() if not t.ok}
        assert sorted(errors) == ["a", "c", "d", "f"]
        assert type(errors["c"]) is RequestShedError
        assert errors["c"].record == rows[1] and rows[1].shed
        assert errors["a"].record == rows[3] and rows[3].retries == 1
        assert errors["f"].record == rows[4] and rows[4].retries == 3
        assert errors["d"].record is None


def _typed(value):
    """A response as ``(field, type, value)`` triples: the column path
    must not leak a NumPy scalar where the record walk gives a float."""
    return [
        (name, type(field), field) for name, field in vars(value).items()
    ]


def _assert_same_ticket(left, right):
    assert (left.done, left.ok, left.deadline_met) == (
        right.done,
        right.ok,
        right.deadline_met,
    )
    if left.ok:
        assert _typed(left.result()) == _typed(right.result())
    else:
        assert type(left.exception()) is type(right.exception())
        assert str(left.exception()) == str(right.exception())
        assert left.exception().record == right.exception().record


# ----------------------------------------------------------------------
# routed sessions: tickets from columns, batches routed per annotation
# ----------------------------------------------------------------------
_TIERS = (0.01, 0.05, 0.10)


class _CountingRouter(TierRouter):
    """A router that counts its routing decisions."""

    routed = 0

    def route(self, tolerance, objective):
        self.routed += 1
        return super().route(tolerance, objective)


def _routed_family(seed, measurements):
    """One seeded routed session: every routing cell a random draw over
    the single / sequential / concurrent / early-termination shapes,
    requests over the 4 x 2 annotation mix, batching on odd seeds."""
    rng = np.random.default_rng([seed, 20261001])
    shapes = (
        lambda t: SingleVersionPolicy("fast"),
        lambda t: SingleVersionPolicy("slow"),
        lambda t: SequentialPolicy("fast", "slow", t),
        lambda t: ConcurrentPolicy("fast", "slow", t),
        lambda t: EarlyTerminationPolicy("fast", "slow", t),
    )
    tables = {}
    for objective in Objective:
        cells = [
            EnsembleConfiguration(
                f"{objective.value}@{label}",
                shapes[rng.integers(0, len(shapes))](
                    float(rng.choice([0.4, 0.5, 0.6, 0.7]))
                ),
            )
            for label in ("base", *_TIERS)
        ]
        tables[objective] = RoutingRuleTable(
            objective=objective,
            baseline=cells[0],
            rules=dict(zip(_TIERS, cells[1:])),
        )
    n = int(rng.integers(40, 90))
    times = np.cumsum(rng.exponential(0.2, n))
    rng.shuffle(times)  # submission order is not arrival order
    objectives = tuple(Objective)
    requests = [
        ServiceRequest(
            request_id=f"routed_{i:04d}",
            payload=str(rng.choice(measurements.request_ids)),
            tolerance=float(rng.choice((0.0, *_TIERS))),
            objective=objectives[int(rng.integers(0, len(objectives)))],
            metadata={"deadline_s": 0.2} if i % 2 else {},
        )
        for i in range(n)
    ]
    backend = SimulatedBackend(
        build_replay_cluster(measurements, {"fast": 2, "slow": 2}),
        batching=BatchingConfig(max_batch_size=3, max_wait_s=0.02)
        if seed % 2
        else None,
        seed=seed,
    )
    gateway = TierGateway(backend, router=_CountingRouter(tables))
    return gateway, requests, times.tolist()


class TestRoutedSessionResolvesFromColumns:
    @pytest.mark.parametrize("seed", range(8))
    def test_column_resolve_is_the_record_resolve(
        self, seed, measurements, sim_loop
    ):
        gateway, requests, times = _routed_family(seed, measurements)
        tickets = gateway.submit_batch(requests, at_times=times)
        responses = gateway.drain()
        report = gateway.backend.last_report
        assert (report.engine_used, report.fallback_reason) == outcome(sim_loop)
        assert report.columns is not None

        walked = TierGateway(
            _CannedBackend(list(report.records)), router=gateway.router
        )
        walked_tickets = walked.submit_batch(requests, at_times=times)
        walked_responses = walked.drain()

        assert len(responses) == len(requests)
        assert [_typed(r) for r in responses] == [
            _typed(r) for r in walked_responses
        ]
        for ticket, other in zip(tickets, walked_tickets):
            _assert_same_ticket(ticket, other)
        assert {t.deadline_met for t in tickets} == {None, True, False}

    def test_an_answered_session_builds_no_records(
        self, measurements, monkeypatch
    ):
        built = []
        real = RecordColumns.record

        def counted(self, index):
            built.append(index)
            return real(self, index)

        monkeypatch.setattr(RecordColumns, "record", counted)
        gateway, requests, times = _routed_family(3, measurements)
        tickets = gateway.submit_batch(requests, at_times=times)
        with default_loop():  # the columnar loop's property, on both legs
            responses = gateway.drain()
        assert built == []
        assert [t.result() for t in tickets] and built == []
        assert len(responses) == len(tickets) and all(t.ok for t in tickets)
        # The lazy view is still there for whoever does want a record.
        first = gateway.backend.last_report.records[0]
        assert built == [0] and first.request_id == responses[0].request_id

    def test_a_batch_routes_once_per_annotation(self, measurements):
        gateway, requests, times = _routed_family(5, measurements)
        annotations = {(r.tolerance, r.objective) for r in requests}
        batch = gateway.submit_batch(requests, at_times=times, deadline_s=0.3)
        assert gateway.router.routed == len(annotations) == 8 < len(requests)

        looped, _, _ = _routed_family(5, measurements)
        one_by_one = [
            looped.submit(request, at_time=at, deadline_s=0.3)
            for request, at in zip(requests, times)
        ]
        assert [(t.request, t.at_time, t.deadline_s) for t in batch] == [
            (t.request, t.at_time, t.deadline_s) for t in one_by_one
        ]
        assert gateway.drain() == looped.drain()
        for ticket, other in zip(batch, one_by_one):
            _assert_same_ticket(ticket, other)
        assert (
            gateway.backend.last_report.digest()
            == looped.backend.last_report.digest()
        )


class TestDeferredSubmissionIsValidatedBeforeItIsIssued:
    """A refused submission leaves no ticket behind: no batch half
    issued, no second ticket for an id (drain resolves by id), no NaN
    time or deadline for the engine or ``deadline_met`` to choke on."""

    def _gateway(self, measurements):
        gateway, requests, times = _routed_family(1, measurements)
        return gateway, requests[:6], times[:6]

    def test_a_failed_batch_issues_nothing(self, measurements):
        gateway, requests, times = self._gateway(measurements)
        bad = ServiceRequest("bad", requests[0].payload)
        object.__setattr__(bad, "objective", "cheapest")
        with pytest.raises(UnknownObjectiveError, match="cheapest"):
            gateway.submit_batch([*requests[:2], bad], at_times=times[:3])
        assert gateway.tickets == ()
        assert gateway.drain() == []
        # ... and the session is as it was: the good requests still go.
        tickets = gateway.submit_batch(requests, at_times=times)
        assert len(gateway.drain()) == len(tickets) == 6

    def test_duplicate_request_ids_are_rejected(self, measurements, sim_loop):
        gateway, requests, times = self._gateway(measurements)
        first = gateway.submit(requests[0], at_time=times[0])
        with pytest.raises(RequestValidationError, match="routed_0000"):
            gateway.submit(requests[0], at_time=times[1])
        with pytest.raises(RequestValidationError, match="routed_0000"):
            gateway.submit_batch(requests[:3], at_times=times[:3])
        with pytest.raises(RequestValidationError, match="routed_0002"):
            gateway.submit_batch(
                [requests[1], requests[2], requests[2]], at_times=times[:3]
            )
        assert gateway.tickets == (first,)
        tickets = gateway.submit_batch(requests[1:], at_times=times[1:])
        responses = gateway.drain()
        assert len(responses) == 6 and all(t.ok for t in (first, *tickets))
        report = gateway.backend.last_report
        assert (report.engine_used, report.fallback_reason) == outcome(sim_loop)

    @pytest.mark.parametrize("at_time", [float("nan"), float("inf")])
    def test_non_finite_arrival_times_are_rejected(self, at_time, measurements):
        gateway, requests, times = self._gateway(measurements)
        with pytest.raises(RequestValidationError, match="routed_0000"):
            gateway.submit(requests[0], at_time=at_time)
        with pytest.raises(RequestValidationError, match="routed_0001"):
            gateway.submit_batch(requests[:2], at_times=[times[0], at_time])
        with pytest.raises(ValueError, match="cannot schedule at t=-1.0"):
            gateway.submit(requests[0], at_time=-1.0)
        assert gateway.tickets == ()

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -0.5])
    def test_unmeetable_deadlines_are_rejected(self, deadline, measurements):
        gateway, requests, times = self._gateway(measurements)
        with pytest.raises(RequestValidationError, match="routed_0001"):
            gateway.submit(requests[1], deadline_s=deadline)
        labelled = ServiceRequest(
            "labelled", requests[0].payload, metadata={"deadline_s": deadline}
        )
        with pytest.raises(RequestValidationError, match="labelled"):
            gateway.submit_batch([requests[1], labelled], at_times=times[:2])
        assert gateway.tickets == ()
