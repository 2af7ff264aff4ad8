"""Gateway x control plane: shed tickets, drain under shedding, sync loop.

The satellite contract this file pins: a gateway ticket for a request
the admission controller shed resolves with a structured
:class:`RequestShedError` (a :class:`RequestFailedError` subclass, so
existing failure handling keeps working) — and it resolves *at* the
drain, never hanging past it.
"""

from dataclasses import replace

import pytest

from repro.core.configuration import EnsembleConfiguration
from repro.core.errors import (
    BackendCapabilityError,
    RequestFailedError,
    RequestShedError,
    TierError,
)
from repro.core.policies import SingleVersionPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlPlane,
    ControlSpec,
    SLOSpec,
    SLOState,
)
from repro.service.gateway import (
    DirectBackend,
    ReplayBackend,
    SimulatedBackend,
    TierGateway,
)
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    SpikeArrivals,
    build_replay_cluster,
    canonical_scenarios,
    scenario_measurements,
)


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


@pytest.fixture(scope="module")
def spike_spec():
    return replace(
        canonical_scenarios()["spike"],
        arrivals=SpikeArrivals(
            2.0, spike_start_s=10.0, spike_duration_s=15.0, spike_multiplier=8.0
        ),
        n_requests=300,
    )


def shed_control_spec(target=1.5):
    return ControlSpec(
        window_s=5.0,
        tick_interval_s=0.25,
        slos=(
            SLOSpec(
                name="latency",
                max_p95_latency_s=target,
                breach_after=1,
                clear_after=8,
            ),
        ),
        admission=AdmissionSpec(policy="probabilistic", shed_probability=0.9),
    )


def requests_for(spec, toy, rng_seed=5):
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    times = spec.arrivals.times(spec.n_requests, np.random.default_rng(spec.seed))
    picks = rng.integers(0, toy.n_requests, size=spec.n_requests)
    return [
        ServiceRequest(
            request_id=f"g{i:05d}",
            payload=toy.request_ids[picks[i]],
            tolerance=0.0,
        )
        for i in range(spec.n_requests)
    ], [float(t) for t in times]


class TestSimulatedDrainUnderShedding:
    def gateway(self, spec, toy):
        backend = SimulatedBackend.from_scenario(
            replace(spec, control=shed_control_spec()),
            toy,
            check_invariants=True,
        )
        return TierGateway(backend, configuration=spec.configuration)

    def test_every_ticket_resolves_and_sheds_are_structured(
        self, spike_spec, toy
    ):
        gateway = self.gateway(spike_spec, toy)
        requests, times = requests_for(spike_spec, toy)
        tickets = gateway.submit_batch(requests, at_times=times)
        responses = gateway.drain()
        assert all(t.done for t in tickets), "no ticket may hang past drain"
        shed = [t for t in tickets if isinstance(t.exception(), RequestShedError)]
        assert shed, "this overload scenario must shed under the 0.9 policy"
        assert len(responses) == sum(1 for t in tickets if t.ok)
        assert len(shed) + len(responses) + sum(
            1
            for t in tickets
            if t.exception() is not None
            and not isinstance(t.exception(), RequestShedError)
        ) == len(tickets)

    def test_shed_error_carries_record_and_hierarchy(self, spike_spec, toy):
        gateway = self.gateway(spike_spec, toy)
        requests, times = requests_for(spike_spec, toy)
        tickets = gateway.submit_batch(requests, at_times=times)
        gateway.drain()
        shed = next(
            t for t in tickets if isinstance(t.exception(), RequestShedError)
        )
        error = shed.exception()
        # Structured: typed, in the TierError family, catchable as a
        # terminal failure, and carrying the engine's shed record.
        assert isinstance(error, RequestFailedError)
        assert isinstance(error, TierError)
        assert error.record is not None and error.record.shed
        with pytest.raises(RequestShedError):
            shed.result()

    def test_backend_report_accounts_sheds(self, spike_spec, toy):
        gateway = self.gateway(spike_spec, toy)
        requests, times = requests_for(spike_spec, toy)
        tickets = gateway.submit_batch(requests, at_times=times)
        gateway.drain()
        report = gateway.backend.last_report
        n_shed = sum(
            1 for t in tickets if isinstance(t.exception(), RequestShedError)
        )
        assert report.n_shed == n_shed > 0
        assert report.n_requests == len(tickets)

    def test_control_spec_inflated_at_bind_time(self, spike_spec, toy):
        backend = SimulatedBackend.from_scenario(
            replace(spike_spec, control=shed_control_spec()), toy
        )
        assert backend.control is None  # spec not inflated yet
        TierGateway(backend, configuration=spike_spec.configuration)
        assert isinstance(backend.control, ControlPlane)


class TestGatewaySideControl:
    def test_control_rejected_on_deferred_backend(self, spike_spec, toy):
        backend = SimulatedBackend.from_scenario(spike_spec, toy)
        plane = ControlPlane.from_spec(shed_control_spec())
        with pytest.raises(BackendCapabilityError, match="SimulatedBackend"):
            TierGateway(
                backend,
                configuration=spike_spec.configuration,
                control=plane,
            )

    def test_sync_gateway_sheds_under_forced_breach(self, spike_spec, toy):
        plane = ControlPlane.from_spec(
            ControlSpec(
                # The sync control clock advances one unit per
                # submission, so this window spans the last 100 requests.
                window_s=100.0,
                tick_interval_s=0.5,
                slos=(
                    SLOSpec(
                        name="latency",
                        max_p95_latency_s=0.001,
                        breach_after=1,
                        clear_after=100,
                    ),
                ),
                admission=AdmissionSpec(
                    policy="probabilistic", shed_probability=1.0
                ),
            )
        )
        gateway = TierGateway(
            ReplayBackend(toy),
            configuration=spike_spec.configuration,
            control=plane,
        )
        # Warm the window past the percentile guard so the 1 ms SLO
        # breaches for real (sheds begin mid-warmup, once the twentieth
        # sample unlocks the percentile), then watch admission drop
        # everything.
        for i in range(25):
            try:
                gateway.handle(
                    ServiceRequest(request_id=f"warm{i}", payload="r000")
                )
            except RequestShedError:
                pass
        assert plane.state is SLOState.BREACH
        ticket = gateway.submit(
            ServiceRequest(request_id="doomed", payload="r001")
        )
        assert isinstance(ticket.exception(), RequestShedError)
        with pytest.raises(RequestShedError):
            ticket.result()
        # Shed tickets produced no response: drain returns only real ones.
        assert gateway.drain() == []

    def test_sync_handle_raises_shed_without_desync(self, toy, spike_spec):
        plane = ControlPlane.from_spec(
            ControlSpec(
                # The sync control clock advances one unit per
                # submission, so this window spans the last 100 requests.
                window_s=100.0,
                tick_interval_s=0.5,
                slos=(
                    SLOSpec(
                        name="latency",
                        max_p95_latency_s=0.001,
                        breach_after=1,
                        clear_after=100,
                    ),
                ),
                admission=AdmissionSpec(
                    policy="probabilistic", shed_probability=1.0
                ),
            )
        )
        gateway = TierGateway(
            ReplayBackend(toy),
            configuration=spike_spec.configuration,
            control=plane,
        )
        for i in range(25):
            try:
                gateway.handle(
                    ServiceRequest(request_id=f"warm{i}", payload="r000")
                )
            except RequestShedError:
                pass
        with pytest.raises(RequestShedError):
            gateway.handle(ServiceRequest(request_id="x", payload="r002"))
        # The one-shot bookkeeping stayed consistent: a fresh healthy
        # request (post-shed the plane stays breached, so exempt it by
        # disabling the controller) still round-trips.
        plane.controller = None
        response = gateway.handle(
            ServiceRequest(request_id="y", payload="r003")
        )
        assert response.request_id == "y"
        assert gateway.tickets == ()


@pytest.mark.parametrize("session", ["router", "undeployed-version"])
def test_a_swap_the_session_cannot_serve_is_declined(session, toy):
    """A synchronous session that cannot deploy the adaptor's swap — it
    routes per request, or the swap needs a version its backend lacks —
    declines it, and the adaptor's active policy stays the one serving."""
    anchor = EnsembleConfiguration("osfa_slow", SingleVersionPolicy("slow"))
    plane = ControlPlane.from_spec(
        ControlSpec(
            window_s=100.0,
            tick_interval_s=0.5,
            # Breach from the first reliable window: every re-fit widens.
            slos=(
                SLOSpec(
                    name="latency",
                    max_p95_latency_s=0.001,
                    breach_after=1,
                    clear_after=100,
                ),
            ),
            adaptor=AdaptorConfig(
                refit_interval_s=1.0, tolerance_step=10.0, max_tolerance=100.0
            ),
        ),
        measurements=toy,
        configuration=anchor,
    )
    if session == "router":
        table = RoutingRuleTable(
            objective=Objective.RESPONSE_TIME, baseline=anchor, rules={0.0: anchor}
        )
        gateway = TierGateway(
            ReplayBackend(toy),
            router=TierRouter({Objective.RESPONSE_TIME: table}),
            control=plane,
        )
    else:
        gateway = TierGateway(
            DirectBackend(build_replay_cluster(toy, {"slow": 1})),
            configuration=anchor,
            control=plane,
        )
    for i in range(60):
        gateway.handle(
            ServiceRequest(request_id=f"q{i}", payload=toy.request_ids[i % 50])
        )

    kinds = [entry.kind for entry in plane.log]
    swapped = kinds.index("swap")
    assert kinds[swapped + 1] == "swap-declined"
    # Blacklisted: later re-fits that pick it again are refused.
    assert "refit-rejected" in kinds[swapped + 2 :]
    assert "swap" not in kinds[swapped + 1 :]
    assert plane.adaptor.active is anchor
    assert gateway.configuration is (None if session == "router" else anchor)
