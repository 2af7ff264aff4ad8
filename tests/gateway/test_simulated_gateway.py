"""Gateway traffic through the virtual-clock engine, faults included.

Two contracts are pinned here:

* **Determinism** — a gateway-driven load test over
  ``SimulatedBackend.from_scenario`` produces exactly the report a direct
  :func:`~repro.service.simulation.scenarios.run_scenario` call does
  (byte-identical digest), under a PR 3 fault scenario with the
  conservation-law invariant checker enabled.  The public API *is* the
  load-test surface now, at zero behavioural drift.
* **Session semantics** — explicit ``submit``/``drain`` sessions resolve
  tickets from the engine's records: successful requests carry the
  answering result and confidence, requests the scenario killed raise
  :class:`~repro.core.errors.RequestFailedError`, and the session is
  single-use.
"""

import logging

import numpy as np
import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    BackendCapabilityError,
    GatewayClosedError,
    RequestFailedError,
    RequestShedError,
    ResultPendingError,
)
from repro.core.policies import SequentialPolicy
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.gateway import gateway as gateway_module
from repro.service.request import ServiceRequest
from repro.service.simulation import (
    LoadTestReport,
    NodeCrash,
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

    def __init__(self, records):
        self._records = records
        self.submitted = []

    def submit(self, request, *, at_time=0.0):
        self.submitted.append(request.request_id)

    def drain(self):
        return LoadTestReport(records=self._records)


class _CountedRecords(list):
    """A record list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


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
        result=f"answer-{request_id}",
        confidence=0.9,
    )
    fields.update(outcome)
    return RequestRecord(**fields)


class TestDrainWalksTheReportOnce:
    def test_failed_shed_and_record_less_tickets_in_one_session(
        self, caplog, monkeypatch
    ):
        """Submission order a..f; the report completes e, c, b, a, f (a
        failed after 1 retry, c shed, f failed after 3) and never
        mentions d."""
        records = _CountedRecords(
            [
                _canned_record("e", 0.1),
                _canned_record("c", 0.2, shed=True, versions_used=()),
                _canned_record("b", 0.3, confidence=None),
                _canned_record("a", 0.4, failed=True, retries=1),
                _canned_record("f", 0.5, failed=True, retries=3),
                _canned_record("stranger", 0.6),
            ]
        )
        backend = _CannedBackend(records)
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
        # The gateway's log is count-limited per template; start clean.
        monkeypatch.setattr(gateway_module._log, "_counts", {})
        with caplog.at_level(logging.INFO, logger="repro.service.gateway"):
            responses = gateway.drain()

        assert records.walks == 1
        # Responses: the answered requests, in completion order.
        assert [r.request_id for r in responses] == ["e", "b"]
        assert responses[0] is tickets["e"].result()
        assert tickets["b"].result().result == "answer-b"
        assert tickets["b"].result().confidence == 1.0
        assert tickets["e"].result().tier == 0.02
        assert all(t.done for t in tickets.values())
        assert [n for n, t in tickets.items() if t.ok] == ["b", "e"]
        # Failures are structured and carry their record.
        for name, retries in (("a", 1), ("f", 3)):
            error = tickets[name].exception()
            assert type(error) is RequestFailedError
            assert error.record.retries == retries
        assert "after 1 retry" in str(tickets["a"].exception())
        assert "after 3 retries" in str(tickets["f"].exception())
        shed = tickets["c"].exception()
        assert isinstance(shed, RequestShedError) and shed.record.shed
        missing = tickets["d"].exception()
        assert type(missing) is RequestFailedError and missing.record is None
        assert "produced no record" in str(missing)
        # One log line per unanswered ticket, in submission order.
        assert [r.getMessage() for r in caplog.records] == [
            "request a failed terminally after 1 retries",
            "request c was shed by engine admission control",
            "no record for submitted request d at drain",
            "request f failed terminally after 3 retries",
        ]
