"""Gateway x control plane: shed tickets, drain under shedding, engine-clock control.

The satellite contract this file pins: a gateway ticket for a request
the admission controller shed resolves with a structured
:class:`RequestShedError` (a :class:`RequestFailedError` subclass, so
existing failure handling keeps working) — and it resolves *at* the
drain, never hanging past it.
"""

from dataclasses import replace

import pytest

from repro.core.errors import (
    RequestFailedError,
    RequestShedError,
    TierError,
)
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlPlane,
    ControlSpec,
    SLOSpec,
)
from repro.service.gateway import ReplayBackend, SimulatedBackend, TierGateway
from repro.service.request import ServiceRequest
from repro.service.simulation import (
    SpikeArrivals,
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


def adaptive_control_spec():
    return ControlSpec(
        window_s=8.0,
        tick_interval_s=0.25,
        slos=(
            SLOSpec(
                name="latency", max_p95_latency_s=1.5, breach_after=1, clear_after=8
            ),
        ),
        admission=AdmissionSpec(policy="degrade"),
        adaptor=AdaptorConfig(
            refit_interval_s=1.0,
            min_window_samples=15,
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
            thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
        ),
    )


class TestEngineClockControl:
    """A simulated session's plane decides in the engine, on the virtual
    clock; the gateway resolves tickets from what the engine did."""

    def drain(self, spec, toy, control):
        backend = SimulatedBackend.from_scenario(
            replace(spec, control=control), toy, check_invariants=True
        )
        gateway = TierGateway(backend, configuration=spec.configuration)
        requests, times = requests_for(spec, toy)
        tickets = gateway.submit_batch(requests, at_times=times)
        gateway.drain()
        return backend, tickets

    def test_a_plane_reaches_a_session_only_through_its_backend(
        self, spike_spec, toy
    ):
        plane = ControlPlane.from_spec(shed_control_spec())
        with pytest.raises(TypeError, match="control"):
            TierGateway(
                ReplayBackend(toy),
                configuration=spike_spec.configuration,
                control=plane,
            )

    @pytest.mark.parametrize("policy", ["shed", "adaptive"])
    def test_the_controllers_tallies_are_the_reports(
        self, spike_spec, toy, policy
    ):
        control = (
            shed_control_spec() if policy == "shed" else adaptive_control_spec()
        )
        backend, tickets = self.drain(spike_spec, toy, control)
        report, controller = backend.last_report, backend.control.controller
        assert (controller.n_shed, controller.n_degraded) == (
            report.n_shed,
            report.n_degraded,
        )
        assert controller.n_shed + controller.n_degraded > 0

    def test_shed_tickets_match_the_planes_tally(self, spike_spec, toy):
        backend, tickets = self.drain(spike_spec, toy, shed_control_spec())
        n_shed = sum(isinstance(t.exception(), RequestShedError) for t in tickets)
        assert n_shed == backend.control.controller.n_shed > 0
        assert backend.control.hub.total_published == len(tickets)

    def test_degraded_requests_answer_on_the_fast_leg(self, spike_spec, toy):
        backend, tickets = self.drain(spike_spec, toy, adaptive_control_spec())
        report = backend.last_report
        assert not any(isinstance(t.exception(), RequestShedError) for t in tickets)
        assert report.n_degraded == backend.control.controller.n_degraded > 0
        for r in report.records:
            if r.degraded and not r.failed:
                assert r.versions_used == ("fast",)

    def test_adaptor_swaps_serve_only_deployed_versions(self, spike_spec, toy):
        backend, tickets = self.drain(spike_spec, toy, adaptive_control_spec())
        report = backend.last_report
        assert all(t.done for t in tickets)
        assert any(entry.kind == "swap" for entry in report.control_log)
        deployed = set(spike_spec.pools)
        for r in report.records:
            assert set(r.versions_used) <= deployed
