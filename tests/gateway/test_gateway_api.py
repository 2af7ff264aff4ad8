"""The TierGateway client surface: sessions, tickets, and error paths."""

import math

import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    BackendCapabilityError,
    MissingVersionError,
    PolicyConfigurationError,
    RequestValidationError,
    ResultPendingError,
    TierError,
    UnknownObjectiveError,
    UnroutableToleranceError,
)
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.gateway import DirectBackend, TierGateway
from repro.service.instances import get_instance_type
from repro.service.node import CallableVersion, VersionResult
from repro.service.request import Objective, ServiceRequest


def _version(name, compute_seconds, confidence):
    def handler(request_id, payload):
        return VersionResult(
            request_id=request_id,
            version=name,
            output=f"{name}({payload})",
            error=None,
            confidence=confidence,
            compute_seconds=compute_seconds,
        )

    return CallableVersion(name, handler)


def _cluster(fast_confidence=0.9):
    instance = get_instance_type("cpu.medium")
    return ClusterDeployment(
        {
            "fast": NodePool(_version("fast", 0.1, fast_confidence), instance),
            "slow": NodePool(_version("slow", 0.5, 0.95), instance),
        }
    )


def _router():
    baseline = EnsembleConfiguration("cfg_base", SingleVersionPolicy("slow"))
    seq = EnsembleConfiguration("cfg_seq", SequentialPolicy("fast", "slow", 0.5))
    table = RoutingRuleTable(
        objective=Objective.RESPONSE_TIME,
        baseline=baseline,
        rules={0.05: seq},
    )
    return TierRouter({Objective.RESPONSE_TIME: table})


def _gateway(fast_confidence=0.9):
    return TierGateway(DirectBackend(_cluster(fast_confidence)), router=_router())


class _StubRequest:
    """Duck-typed request carrying an annotation a frozen ServiceRequest
    would refuse to construct (the gateway must still reject it)."""

    def __init__(self, tolerance):
        self.request_id = "stub"
        self.payload = "x"
        self.tolerance = tolerance
        self.objective = Objective.RESPONSE_TIME
        self.metadata = {}


class TestSessionSurface:
    def test_submit_resolves_immediately_on_direct_backend(self):
        gateway = _gateway()
        ticket = gateway.submit(
            ServiceRequest(request_id="r1", payload="x", tolerance=0.05)
        )
        assert ticket.done and ticket.ok
        response = ticket.result()
        assert response.versions_used == ("fast",)
        assert response.result == "fast(x)"
        assert response.tier == pytest.approx(0.05)

    def test_submit_batch_and_drain(self):
        gateway = _gateway()
        tickets = gateway.submit_batch(
            [
                ServiceRequest(request_id=f"r{i}", payload="x", tolerance=0.05)
                for i in range(3)
            ]
        )
        assert all(t.ok for t in tickets)
        responses = gateway.drain()
        assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
        # Draining again returns nothing: responses are claimed once.
        assert gateway.drain() == []

    def test_submit_batch_length_mismatch(self):
        gateway = _gateway()
        with pytest.raises(ValueError, match="arrival"):
            gateway.submit_batch(
                [ServiceRequest(request_id="r", payload="x")],
                at_times=[0.0, 1.0],
            )

    def test_handle_does_not_leak_into_drain(self):
        gateway = _gateway()
        gateway.handle(ServiceRequest(request_id="r1", payload="x"))
        assert gateway.drain() == []

    def test_tickets_are_recorded_in_submission_order(self):
        gateway = _gateway()
        gateway.submit(ServiceRequest(request_id="a", payload="x"))
        gateway.submit(ServiceRequest(request_id="b", payload="x"))
        assert [t.request.request_id for t in gateway.tickets] == ["a", "b"]

    def test_session_bookkeeping_is_claimed_by_drain(self):
        # A long-lived synchronous gateway must not accumulate per-request
        # state: drain() claims the tickets with the responses, and the
        # one-shot handle() retains nothing at all.
        gateway = _gateway()
        gateway.submit(ServiceRequest(request_id="a", payload="x"))
        gateway.drain()
        assert gateway.tickets == ()
        gateway.handle(ServiceRequest(request_id="b", payload="x"))
        assert gateway.tickets == ()

    def test_deadline_met_bookkeeping(self):
        gateway = _gateway()
        met = gateway.submit(
            ServiceRequest(request_id="r1", payload="x", tolerance=0.05),
            deadline_s=0.2,
        )
        missed = gateway.submit(
            ServiceRequest(request_id="r2", payload="x", tolerance=0.0),
            deadline_s=0.2,
        )
        undeclared = gateway.submit(
            ServiceRequest(request_id="r3", payload="x", tolerance=0.05)
        )
        assert met.deadline_met is True  # fast path: 0.1 s
        assert missed.deadline_met is False  # baseline: 0.5 s
        assert undeclared.deadline_met is None

    def test_deadline_from_request_metadata(self):
        gateway = _gateway()
        ticket = gateway.submit(
            ServiceRequest(
                request_id="r1",
                payload="x",
                tolerance=0.05,
                metadata={"deadline_s": "0.2"},
            )
        )
        assert ticket.deadline_s == pytest.approx(0.2)
        assert ticket.deadline_met is True

    def test_malformed_metadata_deadline(self):
        gateway = _gateway()
        with pytest.raises(RequestValidationError, match="deadline_s"):
            gateway.submit(
                ServiceRequest(
                    request_id="r1",
                    payload="x",
                    metadata={"deadline_s": "soon"},
                )
            )

    @pytest.mark.parametrize("deadline", ["soon", float("nan"), -0.2])
    def test_unmeetable_explicit_deadline(self, deadline):
        gateway = _gateway()
        with pytest.raises(RequestValidationError, match="'r1'.*deadline|deadline.*'r1'"):
            gateway.submit(
                ServiceRequest(request_id="r1", payload="x"), deadline_s=deadline
            )
        assert gateway.tickets == ()

    def test_synchronous_sessions_may_reuse_request_ids(self):
        # Only a deferred session resolves its tickets by request id.
        gateway = _gateway()
        request = ServiceRequest(request_id="dup", payload="x")
        tickets = [gateway.submit(request), *gateway.submit_batch([request] * 2)]
        assert all(t.ok for t in tickets) and len(gateway.drain()) == 3

    def test_handle_http_preserves_metadata_headers(self):
        gateway = _gateway()
        response = gateway.handle_http(
            "r1",
            "x",
            {
                " tolerance ": "0.05",
                "OBJECTIVE": "Response-Time",
                "X-Consumer": "photo-app",
            },
        )
        assert response.versions_used == ("fast",)
        assert response.tier == pytest.approx(0.05)


class TestErrorPaths:
    def test_requires_exactly_one_of_router_configuration(self):
        backend = DirectBackend(_cluster())
        with pytest.raises(ValueError, match="exactly one"):
            TierGateway(backend)
        with pytest.raises(ValueError, match="exactly one"):
            TierGateway(
                backend,
                router=_router(),
                configuration=EnsembleConfiguration(
                    "cfg", SingleVersionPolicy("slow")
                ),
            )

    def test_unknown_objective(self):
        gateway = _gateway()  # router only has a response-time table
        with pytest.raises(UnknownObjectiveError, match="cost"):
            gateway.submit(
                ServiceRequest(
                    request_id="r1",
                    payload="x",
                    tolerance=0.05,
                    objective=Objective.COST,
                )
            )

    def test_unknown_objective_is_a_tier_and_value_error(self):
        gateway = _gateway()
        request = ServiceRequest(
            request_id="r1", payload="x", objective=Objective.COST
        )
        with pytest.raises(TierError):
            gateway.submit(request)
        with pytest.raises(ValueError):
            gateway.submit(request)

    def test_unroutable_tolerance(self):
        gateway = _gateway()
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(UnroutableToleranceError, match="unroutable"):
                gateway.submit(_StubRequest(bad))

    def test_missing_version_rejected_at_construction(self):
        instance = get_instance_type("cpu.medium")
        cluster = ClusterDeployment(
            {"slow": NodePool(_version("slow", 0.5, 0.9), instance)}
        )
        with pytest.raises(MissingVersionError, match="fast"):
            TierGateway(DirectBackend(cluster), router=_router())
        # And it is still the ValueError the pre-gateway service raised.
        with pytest.raises(ValueError):
            TierGateway(DirectBackend(cluster), router=_router())

    def test_missing_threshold_is_a_hard_error(self):
        class ThresholdlessPolicy:
            kind = "seq"
            name = "seq[broken]"
            versions = ("fast", "slow")
            fast_version = "fast"
            accurate_version = "slow"

        gateway = TierGateway(
            DirectBackend(_cluster()),
            configuration=EnsembleConfiguration(
                "cfg_broken", ThresholdlessPolicy()
            ),
        )
        with pytest.raises(PolicyConfigurationError, match="confidence_threshold"):
            gateway.handle(ServiceRequest(request_id="r1", payload="x"))

    def test_malformed_headers_surface_as_request_validation_error(self):
        gateway = _gateway()
        with pytest.raises(RequestValidationError, match="Tolerance"):
            gateway.handle_http("r1", "x", {"Tolerance": "abc"})
        with pytest.raises(RequestValidationError, match="objective"):
            gateway.handle_http("r1", "x", {"Objective": "speed"})

    def test_run_load_needs_a_simulated_backend(self):
        gateway = _gateway()
        with pytest.raises(BackendCapabilityError, match="run_load"):
            gateway.run_load(None, 1)

    def test_result_pending_is_a_tier_error(self):
        ticket_error = ResultPendingError("pending")
        assert isinstance(ticket_error, TierError)
        assert isinstance(ticket_error, RuntimeError)

    def test_tolerance_below_smallest_rule_routes_to_baseline(self):
        # Tight-but-valid tolerances are routable (served by the most
        # accurate configuration), not an error.
        gateway = _gateway()
        response = gateway.handle(
            ServiceRequest(request_id="r1", payload="x", tolerance=0.001)
        )
        assert response.versions_used == ("slow",)


class TestConfigurationKinds:
    """The gateway serves every configuration kind through the executor."""

    @pytest.mark.parametrize(
        "kind, confident, expected_versions, expected_time",
        [
            ("seq", True, ("fast",), 0.1),
            ("seq", False, ("fast", "slow"), 0.6),
            ("conc", True, ("fast", "slow"), 0.1),
            ("conc", False, ("fast", "slow"), 0.5),
            ("et", True, ("fast", "slow"), 0.1),
            ("et", False, ("fast", "slow"), 0.5),
        ],
    )
    def test_two_version_semantics(
        self, kind, confident, expected_versions, expected_time
    ):
        from repro.core.policies import (
            ConcurrentPolicy,
            EarlyTerminationPolicy,
        )

        policy_cls = {
            "seq": SequentialPolicy,
            "conc": ConcurrentPolicy,
            "et": EarlyTerminationPolicy,
        }[kind]
        gateway = TierGateway(
            DirectBackend(_cluster(0.9 if confident else 0.2)),
            configuration=EnsembleConfiguration(
                f"cfg_{kind}", policy_cls("fast", "slow", 0.5)
            ),
        )
        response = gateway.handle(ServiceRequest(request_id="r", payload="x"))
        assert response.versions_used == expected_versions
        assert response.response_time_s == pytest.approx(expected_time)
        # Billing: et bounds the accurate pool's waste by the fast latency.
        if kind == "et" and confident:
            cost_conc = TierGateway(
                DirectBackend(_cluster(0.9)),
                configuration=EnsembleConfiguration(
                    "cfg_conc", ConcurrentPolicy("fast", "slow", 0.5)
                ),
            ).handle(ServiceRequest(request_id="r", payload="x"))
            assert response.invocation_cost < cost_conc.invocation_cost

    def test_single_kind(self):
        gateway = TierGateway(
            DirectBackend(_cluster()),
            configuration=EnsembleConfiguration(
                "cfg_single", SingleVersionPolicy("slow")
            ),
        )
        response = gateway.handle(ServiceRequest(request_id="r", payload="x"))
        assert response.versions_used == ("slow",)
        assert response.response_time_s == pytest.approx(0.5)
        assert not math.isnan(response.confidence)
