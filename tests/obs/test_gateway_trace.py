"""Gateway trace wiring: tickets resolve to span trees, sync and deferred."""

import pytest

from oracle.scalar import loop
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import (
    ConcurrentPolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.obs import TraceCollector, traces_from_report
from repro.service.cluster import ClusterDeployment, NodePool
from repro.service.gateway import DirectBackend, SimulatedBackend, TierGateway
from repro.service.instances import get_instance_type
from repro.service.node import CallableVersion, VersionResult
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    BatchingConfig,
    LoadTestReport,
    build_replay_cluster,
    canonical_scenarios,
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


def _cluster():
    instance = get_instance_type("cpu.medium")
    return ClusterDeployment(
        {
            "fast": NodePool(_version("fast", 0.1, 0.9), instance),
            "slow": NodePool(_version("slow", 0.5, 0.95), instance),
        }
    )


def _router():
    baseline = EnsembleConfiguration("cfg_base", SingleVersionPolicy("slow"))
    seq = EnsembleConfiguration(
        "cfg_seq", SequentialPolicy("fast", "slow", 0.5)
    )
    table = RoutingRuleTable(
        objective=Objective.RESPONSE_TIME,
        baseline=baseline,
        rules={0.05: seq},
    )
    return TierRouter({Objective.RESPONSE_TIME: table})


class TestSynchronousGateway:
    def test_each_submission_records_a_trace(self):
        collector = TraceCollector()
        gateway = TierGateway(
            DirectBackend(_cluster()), router=_router(), trace=collector
        )
        ticket = gateway.submit(
            ServiceRequest(request_id="q1", payload="p", tolerance=0.05)
        )
        assert ticket.ok
        trace = gateway.trace_for(ticket)
        assert trace is not None
        assert trace.root.status == "ok"
        assert trace.spans[0].name == "request"
        assert any(s.name == "leg" for s in trace.spans)

    def test_pseudo_clock_orders_submissions(self):
        collector = TraceCollector()
        gateway = TierGateway(
            DirectBackend(_cluster()), router=_router(), trace=collector
        )
        for i in range(3):
            gateway.submit(
                ServiceRequest(
                    request_id=f"q{i}", payload="p", tolerance=0.05
                )
            )
        assert collector.arrival_times() == [0.0, 1.0, 2.0]

    def test_pseudo_clock_survives_handle_and_drain(self):
        """handle() and drain() claim tickets, not time: the trace
        timeline keeps counting submissions (one clock with the control
        plane's), so a TraceArrivals replay sees distinct arrivals."""
        collector = TraceCollector()
        gateway = TierGateway(
            DirectBackend(_cluster()), router=_router(), trace=collector
        )
        for i in range(3):
            gateway.handle(
                ServiceRequest(
                    request_id=f"h{i}", payload="p", tolerance=0.05
                )
            )
        assert collector.arrival_times() == [0.0, 1.0, 2.0]
        gateway.submit(
            ServiceRequest(request_id="s3", payload="p", tolerance=0.05)
        )
        gateway.drain()
        gateway.submit(
            ServiceRequest(request_id="s4", payload="p", tolerance=0.05)
        )
        assert collector.arrival_times() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_no_collector_records_nothing(self):
        gateway = TierGateway(DirectBackend(_cluster()), router=_router())
        ticket = gateway.submit(
            ServiceRequest(request_id="q1", payload="p", tolerance=0.05)
        )
        assert gateway.trace_for(ticket) is None


class TestSimulatedGateway:
    @pytest.mark.parametrize("engine", ("legacy", "columnar"))
    def test_drained_session_fills_the_collector(self, toy, engine):
        spec = canonical_scenarios()["baseline"]
        collector = TraceCollector()
        backend = SimulatedBackend.from_scenario(spec, toy)
        gateway = TierGateway(
            backend, configuration=spec.configuration, trace=collector
        )
        tickets = [
            gateway.submit(
                ServiceRequest(
                    request_id=f"g{i}",
                    payload=toy.request_ids[i % len(toy.request_ids)],
                    tolerance=0.05,
                ),
                at_time=0.05 * i,
            )
            for i in range(10)
        ]
        with loop(engine):
            gateway.drain()
        assert backend.last_report.engine_used == engine
        assert len(collector) == 10
        for ticket in tickets:
            trace = gateway.trace_for(ticket)
            assert trace is not None
            assert trace.spans[0].name == "request"

    def test_report_digest_is_unchanged_by_tracing(self, toy):
        spec = canonical_scenarios()["baseline"]

        def _run(trace):
            backend = SimulatedBackend.from_scenario(spec, toy, trace=trace)
            gateway = TierGateway(backend, configuration=spec.configuration)
            for i in range(10):
                gateway.submit(
                    ServiceRequest(
                        request_id=f"g{i}",
                        payload=toy.request_ids[i % len(toy.request_ids)],
                        tolerance=0.05,
                    ),
                    at_time=0.05 * i,
                )
            gateway.drain()
            return backend.last_report

        off = _run(None)
        on = _run(TraceCollector())
        assert on.digest() == off.digest()

    def test_routed_session_reconstructs_each_request_with_its_own_legs(
        self, toy
    ):
        """A router-driven session drains on the columnar engine, so its
        traces are rebuilt post hoc — every request's legs named by the
        pair *its* configuration used, not a run-wide one."""
        tiers = {
            0.01: SequentialPolicy("fast", "slow", 0.7),
            0.05: ConcurrentPolicy("fast", "slow", 0.5),
            0.10: SingleVersionPolicy("fast"),
        }
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME,
            baseline=EnsembleConfiguration(
                "base", SingleVersionPolicy("slow")
            ),
            rules={
                tolerance: EnsembleConfiguration(f"tier_{i}", policy)
                for i, (tolerance, policy) in enumerate(tiers.items())
            },
        )

        def _run(trace):
            backend = SimulatedBackend(
                build_replay_cluster(toy, {"fast": 2, "slow": 2}),
                batching=BatchingConfig(max_batch_size=4, max_wait_s=0.02),
            )
            gateway = TierGateway(
                backend,
                router=TierRouter({Objective.RESPONSE_TIME: table}),
                trace=trace,
            )
            tickets = [
                gateway.submit(
                    ServiceRequest(
                        request_id=f"t{i:03d}",
                        payload=toy.request_ids[(7 * i) % len(toy.request_ids)],
                        tolerance=(0.0, 0.01, 0.05, 0.10)[i % 4],
                    ),
                    at_time=0.03 * i,
                )
                for i in range(80)
            ]
            gateway.drain()
            return gateway, tickets, backend.last_report

        collector = TraceCollector()
        gateway, tickets, report = _run(collector)
        assert report.engine_used == "columnar"
        assert report.fallback_reason is None
        assert len(collector) == len(tickets) == report.n_requests
        records = {record.request_id: record for record in report.records}
        seen = set()
        for ticket in tickets:
            trace = gateway.trace_for(ticket)
            versions = [
                span.attrs["version"]
                for span in trace.spans
                if span.name in ("leg", "escalate")
            ]
            if "accurate_version" in trace.root.attrs:  # billed, not placed
                versions.append(trace.root.attrs["accurate_version"])
            record = records[ticket.request.request_id]
            assert tuple(versions) == record.versions_used
            seen.add(record.versions_used)
        assert seen == {("fast",), ("slow",), ("fast", "slow")}
        # The per-record derivation of the same report agrees.
        scalar = TraceCollector()
        for trace in traces_from_report(
            LoadTestReport(records=list(report.records))
        ):
            scalar.add_trace(trace)
        assert scalar.digest() == collector.digest()
        _, _, untraced = _run(None)
        assert report.digest() == untraced.digest()
