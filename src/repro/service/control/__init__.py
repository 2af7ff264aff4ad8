"""The serving control plane: observe, judge, shed, adapt.

Everything else in :mod:`repro.service` serves requests; this package
watches the serving and steers it.  Four cooperating parts:

* :mod:`repro.service.control.telemetry` — a streaming, incremental
  sliding window over per-request records (windowed p50/p95/p99 with a
  small-N confidence guard, goodput, availability, node-seconds burn,
  per-tier breakdowns), fed by the discrete-event engine: a record at a
  time on the scalar loop, the rows finalized since the last control
  tick on the columnar one.
* :mod:`repro.service.control.slo` — declarative :class:`SLOSpec`
  targets evaluated continuously into debounced OK / WARN / BREACH
  states with hysteresis, plus :class:`GrayFailureDetector`, which
  flags slow-but-alive nodes by comparing per-node service-time EWMAs
  against the pool median.
* :mod:`repro.service.control.admission` — the admission controller
  consulted once per arriving request; under BREACH it sheds
  (probabilistically or by priority) or force-degrades traffic to the
  fast tier.  Shed and degraded requests are first-class in reports
  and conservation laws.
* :mod:`repro.service.control.adaptor` — online tier-policy
  adaptation: re-run the PR 2 rule generator on the trailing telemetry
  window, hot-swap the winner, tighten back to the anchor when healthy,
  with minimum-window and rollback guardrails.

:mod:`repro.service.control.plane` ties them together:
:class:`ControlSpec` (declarative, embeddable in a ``ScenarioSpec``) and
:class:`ControlPlane` (the live loop the engine consults).
See ``docs/CONTROL_PLANE.md``.
"""

from repro.service.control.admission import (
    AdmissionAction,
    AdmissionController,
    AdmissionDecision,
    AdmissionSpec,
    degraded_configuration,
)
from repro.service.control.adaptor import (
    AdaptorConfig,
    AdaptorEvent,
    PolicyAdaptor,
)
from repro.service.control.plane import (
    ControlLogEntry,
    ControlPlane,
    ControlSpec,
    default_control_spec,
)
from repro.service.control.slo import (
    GrayDetectionSpec,
    GrayFailureDetector,
    SLOMonitor,
    SLOSpec,
    SLOState,
    SLOStatus,
)
from repro.service.control.telemetry import (
    MIN_PERCENTILE_SAMPLES,
    PercentileEstimate,
    TelemetryHub,
    TierWindow,
    WindowSnapshot,
    guarded_percentile,
)

__all__ = [
    "AdaptorConfig",
    "AdaptorEvent",
    "AdmissionAction",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionSpec",
    "ControlLogEntry",
    "ControlPlane",
    "ControlSpec",
    "GrayDetectionSpec",
    "GrayFailureDetector",
    "MIN_PERCENTILE_SAMPLES",
    "PercentileEstimate",
    "PolicyAdaptor",
    "SLOMonitor",
    "SLOSpec",
    "SLOState",
    "SLOStatus",
    "TelemetryHub",
    "TierWindow",
    "WindowSnapshot",
    "default_control_spec",
    "degraded_configuration",
    "guarded_percentile",
]
