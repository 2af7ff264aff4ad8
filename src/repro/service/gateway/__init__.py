"""The unified Tolerance Tiers serving gateway.

One client API — :class:`TierGateway` — over pluggable execution
backends:

* :mod:`repro.service.gateway.gateway` -- the session surface:
  ``submit()`` returning :class:`TierTicket` futures, ``submit_batch()``,
  ``drain()``, per-request deadlines, and the structured
  :class:`~repro.core.errors.TierError` hierarchy.
* :mod:`repro.service.gateway.backends` -- the synchronous substrates:
  :class:`DirectBackend` (live contention-free dispatch onto a cluster)
  and :class:`ReplayBackend` (measurement replay, the per-request oracle).
* :mod:`repro.service.gateway.simulated` -- :class:`SimulatedBackend`,
  pacing gateway traffic through the discrete-event engine so the public
  API experiences queueing, batching, autoscaling and scenario faults.

All of them execute through the canonical
:class:`~repro.core.executor.PolicyExecutor` semantics.
"""

from repro.core.errors import (
    BackendCapabilityError,
    GatewayClosedError,
    MissingVersionError,
    PolicyConfigurationError,
    RequestFailedError,
    RequestValidationError,
    ResultPendingError,
    TierError,
    UnknownObjectiveError,
    UnroutableToleranceError,
)
from repro.core.executor import (
    ExecutionBackend,
    ExecutionOutcome,
    Invocation,
    PolicyExecutor,
)
from repro.service.gateway.backends import DirectBackend, ReplayBackend
from repro.service.gateway.gateway import TierGateway, TierTicket
from repro.service.gateway.simulated import SimulatedBackend

__all__ = [
    "BackendCapabilityError",
    "DirectBackend",
    "ExecutionBackend",
    "ExecutionOutcome",
    "GatewayClosedError",
    "Invocation",
    "MissingVersionError",
    "PolicyConfigurationError",
    "PolicyExecutor",
    "ReplayBackend",
    "RequestFailedError",
    "RequestValidationError",
    "ResultPendingError",
    "SimulatedBackend",
    "TierError",
    "TierGateway",
    "TierTicket",
    "UnknownObjectiveError",
    "UnroutableToleranceError",
]
