"""TierGateway(DirectBackend) is bit-identical to the pre-refactor service.

``_ReferenceToleranceTiersService`` below is a faithful copy of the
escalation logic the original ``ToleranceTiersService`` endpoint carried
(same dispatch order, same latency composition, same billing).  Every
test drives the reference and the gateway over independently built but
identical deployments and requires the responses to match
field-for-field — across all four configuration kinds, confident and
escalating traffic, and both the object and HTTP entry points.
"""

import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.gateway import DirectBackend, TierGateway
from repro.service.instances import get_instance_type
from repro.service.node import CallableVersion, VersionResult
from repro.service.request import Objective, ServiceRequest, ServiceResponse


class _ReferenceToleranceTiersService:
    """The pre-gateway implementation, kept verbatim as the equivalence pin."""

    def __init__(self, cluster, router):
        self.cluster = cluster
        self.router = router

    def handle(self, request):
        configuration = self.router.route(request.tolerance, request.objective)
        policy = configuration.policy
        if configuration.kind == "single":
            return self._respond_single(policy.versions[0], request)
        return self._respond_two_version(configuration, request)

    def _respond_single(self, version, request):
        result, latency = self.cluster.raw_dispatch(version, request)
        cost = self.cluster.cost_of({version: latency})
        return ServiceResponse(
            request_id=request.request_id,
            result=result.output,
            versions_used=(version,),
            response_time_s=latency,
            invocation_cost=cost.invocation_cost,
            tier=request.tolerance,
            confidence=result.confidence,
        )

    def _respond_two_version(self, configuration, request):
        policy = configuration.policy
        fast_version = policy.fast_version
        accurate_version = policy.accurate_version
        threshold = getattr(policy, "confidence_threshold", 0.5)
        kind = configuration.kind

        fast_result, fast_latency = self.cluster.raw_dispatch(
            fast_version, request
        )
        escalate = fast_result.confidence < threshold

        if not escalate:
            node_seconds = {fast_version: fast_latency}
            if kind == "conc":
                _, accurate_latency = self.cluster.raw_dispatch(
                    accurate_version, request
                )
                node_seconds[accurate_version] = accurate_latency
            elif kind == "et":
                _, accurate_latency = self.cluster.raw_dispatch(
                    accurate_version, request
                )
                node_seconds[accurate_version] = min(
                    accurate_latency, fast_latency
                )
            cost = self.cluster.cost_of(node_seconds)
            return ServiceResponse(
                request_id=request.request_id,
                result=fast_result.output,
                versions_used=tuple(node_seconds.keys()),
                response_time_s=fast_latency,
                invocation_cost=cost.invocation_cost,
                tier=request.tolerance,
                confidence=fast_result.confidence,
            )

        accurate_result, accurate_latency = self.cluster.raw_dispatch(
            accurate_version, request
        )
        if kind == "seq":
            response_time = fast_latency + accurate_latency
        else:
            response_time = max(fast_latency, accurate_latency)
        cost = self.cluster.cost_of(
            {fast_version: fast_latency, accurate_version: accurate_latency}
        )
        return ServiceResponse(
            request_id=request.request_id,
            result=accurate_result.output,
            versions_used=(fast_version, accurate_version),
            response_time_s=response_time,
            invocation_cost=cost.invocation_cost,
            tier=request.tolerance,
            confidence=accurate_result.confidence,
        )


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


def _cluster(fast_confidence):
    instance = get_instance_type("cpu.medium")
    return ClusterDeployment(
        {
            "fast": NodePool(
                _version("fast", 0.1, fast_confidence), instance, n_nodes=2
            ),
            "slow": NodePool(_version("slow", 0.5, 0.95), instance),
        },
        per_request_fee=1e-6,
        markup=3.0,
    )


def _router():
    """A router exercising all four configuration kinds across tiers."""
    baseline = EnsembleConfiguration("cfg_base", SingleVersionPolicy("slow"))
    rules = {
        0.01: EnsembleConfiguration(
            "cfg_seq", SequentialPolicy("fast", "slow", 0.5)
        ),
        0.05: EnsembleConfiguration(
            "cfg_conc", ConcurrentPolicy("fast", "slow", 0.5)
        ),
        0.10: EnsembleConfiguration(
            "cfg_et", EarlyTerminationPolicy("fast", "slow", 0.5)
        ),
    }
    table = RoutingRuleTable(
        objective=Objective.RESPONSE_TIME, baseline=baseline, rules=rules
    )
    return TierRouter({Objective.RESPONSE_TIME: table})


#: One request per configuration kind (0.0 routes to the single baseline).
TOLERANCES = (0.0, 0.01, 0.05, 0.10)


@pytest.mark.parametrize("fast_confidence", [0.9, 0.2])
def test_gateway_bit_identical_to_reference(fast_confidence):
    reference = _ReferenceToleranceTiersService(
        _cluster(fast_confidence), _router()
    )
    gateway = TierGateway(
        DirectBackend(_cluster(fast_confidence)), router=_router()
    )
    for i, tolerance in enumerate(TOLERANCES * 2):
        request = ServiceRequest(
            request_id=f"r{i}", payload=f"p{i}", tolerance=tolerance
        )
        expected = reference.handle(request)
        actual = gateway.handle(request)
        assert actual == expected  # frozen dataclass: field-for-field
        headers = {"Tolerance": str(tolerance), "Objective": "response-time"}
        assert gateway.handle_http(f"h{i}", f"p{i}", headers) == (
            reference.handle(
                ServiceRequest.from_headers(f"h{i}", f"p{i}", headers)
            )
        )
