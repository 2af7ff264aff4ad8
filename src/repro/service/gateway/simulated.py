"""The deferred execution backend: gateway traffic under the virtual clock.

:class:`SimulatedBackend` plugs the discrete-event engine
(:class:`~repro.service.simulation.engine.ServingSimulator`) in behind the
gateway's client API, so submitted requests experience everything the
engine models — per-node FIFO queues, sublinear batching, pool
autoscaling, and the full PR 3 fault vocabulary (crashes, stragglers,
transient windows, retries with backoff).  Tickets resolve when the
gateway drains; a request the scenario killed resolves with a
:class:`~repro.core.errors.RequestFailedError` instead of a response.

The backend is single-use, like the engine it wraps: one session's clock,
records and pool state belong to one load test.

:meth:`SimulatedBackend.from_scenario` inflates the engine-facing half of
a :class:`~repro.service.simulation.scenarios.ScenarioSpec` (pools,
batching, autoscaling, faults, retry, seed) against a measurement table —
routing stays with the gateway, which is the point: the *public API* is
now the thing a scenario load-tests and fault-injects.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

from repro.core.errors import BackendCapabilityError, GatewayClosedError
from repro.service.cluster import ClusterDeployment
from repro.service.request import ServiceRequest
from repro.service.simulation.autoscaler import AutoscalerConfig
from repro.service.simulation.batching import BatchingConfig
from repro.service.simulation.engine import ServingSimulator
from repro.service.simulation.faults import FaultEvent, RetryPolicy
from repro.service.simulation.replay import build_replay_cluster
from repro.service.simulation.report import LoadTestReport
from repro.service.simulation.scenarios import build_simulator

__all__ = ["SimulatedBackend"]


class SimulatedBackend:
    """Execution backend that paces gateway traffic through the engine.

    Args:
        cluster: The deployment whose queues and pools the session drives.
        batching: Node-level batching policy; default is unbatched.
        autoscaler_config: When given, a fresh
            :class:`~repro.service.simulation.autoscaler.Autoscaler` with
            this config runs during the session.
        faults: Timed fault schedule injected on the virtual clock.
        retry: How failed job attempts are re-driven.
        check_invariants: Verify the engine's conservation laws at drain
            time (see :mod:`repro.service.simulation.invariants`).
        control: Closed-loop control for the session — either a live
            :class:`~repro.service.control.plane.ControlPlane`, or a
            declarative :class:`~repro.service.control.plane.ControlSpec`
            paired with ``control_measurements`` (the plane is then
            inflated at :meth:`bind` time by
            :func:`~repro.service.simulation.scenarios.build_simulator`,
            anchored on the gateway's routing decision).  Requests the
            plane sheds resolve their gateway tickets with a
            :class:`~repro.core.errors.RequestShedError`.
        control_measurements: Measurement table a spec-built plane's
            adaptor generates its tolerance ladder on.
        seed: Seed for arrival sampling, fault and admission draws.
        trace: Optional trace sink — a
            :class:`~repro.obs.trace.TraceCollector` (or a pre-built
            :class:`~repro.obs.record.SimTraceRecorder`) that receives
            one span tree per request; forwarded to the engine at
            :meth:`bind`.  Opt-in and digest-neutral.
    """

    synchronous = False

    def __init__(
        self,
        cluster: ClusterDeployment,
        *,
        batching: Optional[BatchingConfig] = None,
        autoscaler_config: Optional[AutoscalerConfig] = None,
        faults: Sequence[FaultEvent] = (),
        retry: Optional[RetryPolicy] = None,
        check_invariants: bool = False,
        control=None,
        control_measurements=None,
        seed: int = 0,
        trace=None,
    ) -> None:
        self.cluster = cluster
        #: The inflator, awaiting only the gateway's routing decision.
        self._build = partial(
            build_simulator,
            cluster,
            batching=batching,
            autoscaler_config=autoscaler_config,
            faults=faults,
            retry=retry,
            check_invariants=check_invariants,
            control=control,
            measurements=control_measurements,
            seed=seed,
            trace=trace,
        )
        self._simulator: Optional[ServingSimulator] = None
        self.last_report: Optional[LoadTestReport] = None
        #: The live control plane, once :meth:`bind` inflated it.
        self.control = None

    @classmethod
    def from_scenario(
        cls,
        spec,
        measurements,
        *,
        check_invariants: bool = False,
        trace=None,
    ) -> "SimulatedBackend":
        """Build a backend from a scenario spec's engine-facing fields.

        Inflates ``spec.pools`` into a measurement-replay cluster and
        adopts the spec's batching, autoscaling, fault schedule, retry
        policy and seed.  The spec's *routing* half
        (``configuration``/``router``/``tolerance``/``objective``) is
        deliberately ignored: the gateway owns routing, so the same
        degraded-mode scenario can load-test whichever tier mix the
        gateway serves.

        Args:
            spec: A :class:`~repro.service.simulation.scenarios.ScenarioSpec`.
            measurements: Measurement table the spec's pools and faults
                reference.
            check_invariants: Verify conservation laws at drain time.
        """
        cluster = build_replay_cluster(measurements, dict(spec.pools))
        return cls(
            cluster,
            check_invariants=check_invariants,
            control_measurements=measurements,
            trace=trace,
            **spec.engine_fields(),
        )

    @classmethod
    def from_region(
        cls,
        multi_spec,
        region,
        measurements,
        *,
        check_invariants: bool = False,
        trace=None,
    ) -> "SimulatedBackend":
        """Build a backend for one region of a multi-region spec.

        Adopts the named region's engine-facing scenario fields under
        its *spawned* shard seed (see
        :meth:`~repro.service.regions.spec.MultiRegionSpec.equivalent_scenario`),
        so a gateway session against this backend is bit-identical to
        the region's shard in a full
        :func:`~repro.service.regions.runner.run_multi_region` — the
        multi-region spec becomes the single source of truth for both
        the sharded simulation and interactive gateway sessions against
        any one of its regions.

        Args:
            multi_spec: A
                :class:`~repro.service.regions.spec.MultiRegionSpec`.
            region: Region name or declaration index.
            measurements: Measurement table the region's pools and
                faults reference.
            check_invariants: Verify conservation laws at drain time.
            trace: Optional trace sink, as for :meth:`from_scenario`.
        """
        if isinstance(region, str):
            names = list(multi_spec.region_names)
            if region not in names:
                raise KeyError(f"unknown region {region!r}")
            index = names.index(region)
        else:
            index = int(region)
        scenario = multi_spec.equivalent_scenario(index)
        return cls.from_scenario(
            scenario,
            measurements,
            check_invariants=check_invariants,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # gateway protocol
    # ------------------------------------------------------------------
    @property
    def versions(self) -> Tuple[str, ...]:
        """Versions the wrapped deployment can serve."""
        return self.cluster.versions

    def attach_trace(self, trace) -> None:
        """Attach a trace sink before the gateway binds the engine.

        Raises:
            GatewayClosedError: If the engine was already built — the
                sink must be in place before the first event runs.
        """
        if self._simulator is not None:
            raise GatewayClosedError(
                "this SimulatedBackend is already bound; attach the trace "
                "sink before building the gateway"
            )
        self._build = partial(self._build, trace=trace)

    def bind(self, *, router=None, configuration=None) -> None:
        """Attach the gateway's routing decision and build the engine.

        Called once by :class:`~repro.service.gateway.gateway.TierGateway`
        at construction; the engine needs the router (or fixed
        configuration) to decide which pools' queues each arrival joins.
        """
        if self._simulator is not None:
            raise GatewayClosedError(
                "this SimulatedBackend is already bound to a gateway; the "
                "engine is single-use — build a fresh backend per session"
            )
        self._simulator = self._build(
            router=router, configuration=configuration
        )
        self.control = self._simulator.control

    def _engine(self) -> ServingSimulator:
        if self._simulator is None:
            raise GatewayClosedError(
                "this SimulatedBackend is not bound to a gateway yet"
            )
        return self._simulator

    def submit_batch(
        self, requests: Sequence[ServiceRequest], at_times: Sequence[float]
    ) -> None:
        """Schedule the requests' arrivals on the virtual clock: all of
        them, or none when the engine refuses one of the times."""
        self._engine().submit_batch(requests, at_times)

    def drain(self) -> LoadTestReport:
        """Run the event loop until every submitted request resolved."""
        report = self._engine().drain()
        self.last_report = report
        return report

    def run(
        self,
        arrivals,
        n_requests: int,
        *,
        tolerance: float = 0.0,
        objective=None,
        payload_ids=None,
    ) -> LoadTestReport:
        """Generate an offered-load workload and drain it to a report.

        Thin delegation to
        :meth:`~repro.service.simulation.engine.ServingSimulator.run`, so
        gateway-driven load tests consume exactly the random draws a
        directly driven engine would — same seed, same report digest.
        """
        kwargs = {"tolerance": tolerance, "payload_ids": payload_ids}
        if objective is not None:
            kwargs["objective"] = objective
        report = self._engine().run(arrivals, n_requests, **kwargs)
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    # synchronous protocol (unsupported by design)
    # ------------------------------------------------------------------
    def invoke(self, version: str, request: ServiceRequest):
        """Deferred backends cannot invoke synchronously."""
        raise BackendCapabilityError(
            "SimulatedBackend resolves requests at drain time; it cannot "
            "execute a single invocation synchronously"
        )

    def cost_of(self, node_seconds):
        """Billing happens inside the engine, per finalized request."""
        raise BackendCapabilityError(
            "SimulatedBackend bills requests inside the engine; price "
            "node-seconds with the cluster's pricing model instead"
        )
