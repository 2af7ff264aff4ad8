"""The control plane: telemetry + SLO monitors + admission + adaptation.

:class:`ControlSpec` is the declarative half — a frozen value a
:class:`~repro.service.simulation.scenarios.ScenarioSpec` can embed, so a
closed-loop load test is as reproducible and comparable as an open-loop
one.  :class:`ControlPlane` is the live half: the engine feeds it
finalized requests and consults it

* once per arrival (:meth:`ControlPlane.admit` — shed / degrade /
  admit, by the configured admission policy, only while the SLO
  aggregate is in BREACH), and
* once per control tick (:meth:`ControlPlane.on_tick` — snapshot the
  telemetry window, fold every SLO monitor, and ask the policy adaptor
  whether the executor should hot-swap onto another rung of its
  tolerance ladder).

The plane is deterministic by construction: its only randomness is the
admission controller's dedicated seeded stream (consumed only under
BREACH) and the adaptor's ladder bootstrap, seeded by the plane seed
when the plane is built; every monitor is a pure state machine — so a
closed-loop scenario digests identically run after run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import checks
from repro.core.configuration import EnsembleConfiguration
from repro.service.control.admission import (
    ADMIT,
    AdmissionController,
    AdmissionDecision,
    AdmissionSpec,
)
from repro.service.control.adaptor import AdaptorConfig, PolicyAdaptor
from repro.service.control.slo import (
    GrayDetectionSpec,
    GrayFailureDetector,
    SLOMonitor,
    SLOSpec,
    SLOState,
    worst_state,
)
from repro.service.control.telemetry import TelemetryHub, WindowSnapshot

__all__ = [
    "ControlLogEntry",
    "ControlPlane",
    "ControlSpec",
    "default_control_spec",
]


@dataclass(frozen=True)
class ControlLogEntry:
    """One control-plane action, recorded in the load-test report.

    Entries participate in :meth:`LoadTestReport.digest`, pinning
    closed-loop behaviour exactly as fault entries pin fault behaviour.

    Attributes:
        time_s: Virtual time of the action.
        kind: ``"slo"`` (state transition), ``"gray-detected"`` /
            ``"gray-cleared"`` (per-node divergence), ``"swap"``,
            ``"anchor-restore"``, ``"rollback"``,
            one of the ``"refit-*"`` non-swap outcomes (``nochange``
            / ``noimprove`` / ``rejected`` / ``skipped``), or the
            region-scoped kinds (``"region-slo"`` / ``"region-decision"``)
            emitted by :mod:`repro.service.regions`.
        detail: Human-readable context (deterministic for a fixed run).
        region: Region the action names, for multi-region runs whose
            control decisions must say *which region* to shed or adapt;
            ``None`` for single-cluster planes.  The digest renders the
            region inside ``detail`` at the emit site, so this field
            stays out of :meth:`LoadTestReport.digest` and pre-region
            control logs digest unchanged.
    """

    time_s: float
    kind: str
    detail: str
    region: Optional[str] = None


@dataclass(frozen=True)
class ControlSpec:
    """Declarative closed-loop control for one scenario.

    Attributes:
        window_s: Trailing telemetry window length.
        tick_interval_s: Cadence of SLO evaluation / adaptation on the
            virtual clock.
        slos: The service-level objectives monitored continuously.
        admission: Admission (load-shedding) policy; ``None`` admits
            everything.
        adaptor: Online tier-policy adaptation; ``None`` keeps the
            deployed policy static.
        gray_detection: Per-node gray-failure detection (service-time
            divergence against pool peers); ``None`` disables it.
    """

    window_s: float = 10.0
    tick_interval_s: float = 0.5
    slos: Tuple[SLOSpec, ...] = ()
    admission: Optional[AdmissionSpec] = None
    adaptor: Optional[AdaptorConfig] = None
    gray_detection: Optional[GrayDetectionSpec] = None

    def __post_init__(self) -> None:
        # An infinite window is a run-long one; an infinite tick
        # interval would never tick.
        checks.positive("window_s", self.window_s)
        checks.positive("tick_interval_s", self.tick_interval_s, finite=True)
        if (self.admission is not None or self.adaptor is not None) and not self.slos:
            raise ValueError(
                "admission control and adaptation react to SLO state; "
                "declare at least one SLOSpec"
            )


class ControlPlane:
    """Live control loop for one serving session.

    Build one per run (its monitors, window and RNG are stateful), most
    conveniently via :meth:`from_spec`.  The serving simulator is its
    only driver, and the integration is intentionally narrow so the
    engine imports nothing of this package but :class:`AdmissionAction`
    (inside a closed-loop run, to read a decision's action by identity):

    * :attr:`tick_interval_s`
    * :meth:`admit` per arrival,
    * :meth:`observe_rows` with the rows finalized since the last tick
      (a plane the engine drives must define it), or :meth:`observe`
      per finalized record (the test suite's scalar reference loop),
    * :meth:`observe_node` per node completion (optional — the engine
      duck-types for it; a no-op unless gray detection is configured),
    * :meth:`on_tick` per control tick, returning an optional
      configuration to hot-swap onto.
    """

    def __init__(
        self,
        spec: ControlSpec,
        *,
        hub: Optional[TelemetryHub] = None,
        controller: Optional[AdmissionController] = None,
        adaptor: Optional[PolicyAdaptor] = None,
    ) -> None:
        self.spec = spec
        self.hub = hub if hub is not None else TelemetryHub(spec.window_s)
        self.monitors = [SLOMonitor(s) for s in spec.slos]
        self.gray_detector = (
            GrayFailureDetector(spec.gray_detection)
            if spec.gray_detection is not None
            else None
        )
        self.controller = controller
        self.adaptor = adaptor
        self.state = SLOState.OK
        self.log: List[ControlLogEntry] = []
        self.last_snapshot: Optional[WindowSnapshot] = None

    @classmethod
    def from_spec(
        cls,
        spec: ControlSpec,
        *,
        measurements=None,
        configuration: Optional[EnsembleConfiguration] = None,
        router=None,
        seed: int = 0,
        deployed_versions=None,
    ) -> "ControlPlane":
        """Inflate a declarative spec into a live plane.

        Args:
            spec: The declarative control configuration.
            measurements: Measurement table the adaptor's tolerance
                ladder is generated on (required when ``spec.adaptor``
                is set).
            configuration: The deployed configuration — the adaptor's
                anchor (required when ``spec.adaptor`` is set).
            router: The deployed router, for router-based scenarios.
                Adaptation over routers is not supported yet; admission
                and telemetry are.
            seed: Seed for the admission RNG and the ladder's bootstrap.
            deployed_versions: Versions the deployment actually hosts.
                The adaptor's candidate space (and its degradation
                baseline) is restricted to them — a measurement table
                usually covers more versions than any one deployment,
                and a rung must never name an ensemble the cluster
                cannot serve.
        """
        controller = None
        if spec.admission is not None:
            controller = AdmissionController(
                spec.admission,
                rng=np.random.default_rng([seed, 0xAD41]),
            )
        adaptor = None
        if spec.adaptor is not None:
            if router is not None or configuration is None:
                raise ValueError(
                    "the policy adaptor anchors on a fixed configuration; "
                    "router-based deployments support admission control "
                    "and telemetry, not adaptation"
                )
            if measurements is None:
                raise ValueError(
                    "the policy adaptor re-fits on measurements; pass the "
                    "scenario's measurement table"
                )
            if deployed_versions is not None:
                deployed = set(deployed_versions)
                missing = set(configuration.versions) - deployed
                if missing:
                    raise ValueError(
                        f"anchor configuration {configuration.config_id!r} "
                        f"uses undeployed version(s) {sorted(missing)}"
                    )
                kept = [v for v in measurements.versions if v in deployed]
                if set(kept) != set(measurements.versions):
                    measurements = measurements.restrict_versions(kept)
            adaptor = PolicyAdaptor(
                spec.adaptor,
                measurements=measurements,
                anchor=configuration,
                seed=seed,
            )
        return cls(spec, controller=controller, adaptor=adaptor)

    # ------------------------------------------------------------------
    # engine-facing protocol
    # ------------------------------------------------------------------
    @property
    def tick_interval_s(self) -> float:
        """Control-tick cadence on the caller's clock."""
        return self.spec.tick_interval_s

    def admit(
        self, now: float, *, planned: EnsembleConfiguration
    ) -> AdmissionDecision:
        """Decide one request arriving at ``now`` (admit / shed /
        degrade) from the SLO state and its planned configuration."""
        if self.controller is None:
            return ADMIT
        return self.controller.decide(state=self.state, planned=planned)

    def observe(self, record, now: Optional[float] = None) -> None:
        """Fold one finalized request record into the telemetry window."""
        self.hub.publish(record, now)

    def observe_rows(self, rows) -> None:
        """Fold many finalized requests into the telemetry window at once
        (see :meth:`TelemetryHub.publish_rows`): the columnar engine's
        form of :meth:`observe`, called at each control tick with the
        rows finalized since the previous one."""
        self.hub.publish_rows(rows)

    def observe_node(
        self,
        node_id: str,
        version: str,
        service_time_s: float,
        now: Optional[float] = None,
    ) -> None:
        """Fold one node completion into gray-failure detection.

        A no-op when :attr:`ControlSpec.gray_detection` is unset, so
        feeding node telemetry is always safe.
        """
        if self.gray_detector is not None:
            self.gray_detector.observe(node_id, version, service_time_s)

    def on_tick(self, now: float) -> Optional[EnsembleConfiguration]:
        """Evaluate SLOs and adaptation; maybe return a hot-swap target."""
        snapshot = self.hub.snapshot(now)
        self.last_snapshot = snapshot
        for monitor in self.monitors:
            status = monitor.evaluate(snapshot)
            if status.transitioned:
                pressures = ",".join(
                    f"{metric}={ratio:.3f}"
                    for metric, ratio in sorted(status.pressures.items())
                )
                self.log.append(
                    ControlLogEntry(
                        now,
                        "slo",
                        f"{status.name}: -> {status.state.value}"
                        + (f" ({pressures})" if pressures else "")
                        + (" [small-N guard]" if status.guarded else ""),
                    )
                )
        states = [m.state for m in self.monitors]
        if self.gray_detector is not None:
            for kind, detail in self.gray_detector.evaluate():
                self.log.append(ControlLogEntry(now, kind, detail))
            states.append(self.gray_detector.state)
        self.state = worst_state(states)
        if self.adaptor is None:
            return None
        swap = self.adaptor.on_tick(snapshot, self.state, now)
        for event in self.adaptor.drain_events():
            self.log.append(ControlLogEntry(now, event.kind, event.detail))
        return swap


def default_control_spec(
    *,
    p95_target_s: float = 1.0,
    min_availability: float = 0.7,
    admission: Optional[str] = "probabilistic",
    adaptive: bool = True,
    window_s: float = 8.0,
    tick_interval_s: float = 0.5,
) -> ControlSpec:
    """A closed-loop control spec tuned for the canonical toy scenarios.

    The defaults match :func:`~repro.service.simulation.scenarios.scenario_measurements`
    geometry: the seq(fast, slow, 0.6) tier mix answers in ~0.05–0.45 s
    when healthy, so a 1 s p95 ceiling separates "queueing" from
    "degraded".  The adaptor widens in *absolute* error-degradation
    units (the toy baseline error is near zero, which makes relative
    degradation numerically wild).

    Args:
        p95_target_s: Whole-stream p95 ceiling.
        min_availability: Whole-stream availability floor.
        admission: Admission policy name, or ``None`` for monitor-only.
        adaptive: Whether to enable the online policy adaptor.
        window_s: Telemetry window length.
        tick_interval_s: Control-tick cadence.
    """
    slos = (
        SLOSpec(
            name="latency",
            max_p95_latency_s=p95_target_s,
            breach_after=2,
            clear_after=4,
        ),
        SLOSpec(
            name="availability",
            min_availability=min_availability,
            breach_after=2,
            clear_after=4,
        ),
    )
    return ControlSpec(
        window_s=window_s,
        tick_interval_s=tick_interval_s,
        slos=slos,
        admission=AdmissionSpec(policy=admission) if admission else None,
        adaptor=AdaptorConfig(
            refit_interval_s=2.0,
            min_window_samples=20,
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
            thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
        )
        if adaptive
        else None,
    )
