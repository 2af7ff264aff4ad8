"""Tolerance Tiers — the paper's primary contribution.

The package follows the paper's architecture (Section IV):

* :mod:`repro.core.tiers` -- the tier abstraction an API consumer selects:
  an error *tolerance* plus an optimisation *objective*.
* :mod:`repro.core.policies` -- service-version ensembling policies
  (single version, sequential escalation, concurrent, concurrent with
  early termination) evaluated over measurement sets.
* :mod:`repro.core.configuration` -- the ensemble design space the
  routing-rule generator searches.
* :mod:`repro.core.metrics` -- error degradation, response time and cost
  aggregation for policy outcomes.
* :mod:`repro.core.simulator` -- ``simulate(sample, cfg)``: replay a
  configuration over measured requests (paper Fig. 7's inner call).
* :mod:`repro.core.outcome_matrix` -- precomputed per-request outcome
  columns turning bootstrap trials into vectorized gathers (the rule
  generator's fast path; the scalar path remains the oracle).
* :mod:`repro.core.bootstrap` / :mod:`repro.core.rule_generator` -- the
  bootstrapping routing-rule generator with statistical confidence
  (paper Fig. 7).
* :mod:`repro.core.router` -- the serving-time router mapping a requested
  (tolerance, objective) to a configuration.
* :mod:`repro.core.guarantees` -- the k-fold held-out audit showing the
  accuracy guarantees are never violated.
* :mod:`repro.core.executor` -- the one canonical implementation of the
  single/seq/conc/et ensemble semantics (:class:`PolicyExecutor` and the
  pure decision functions the simulation engine shares).
* :mod:`repro.core.errors` -- the structured :class:`TierError` hierarchy
  of the serving surface.
* the serving surface itself is
  :class:`~repro.service.gateway.gateway.TierGateway` (re-exported here
  lazily, together with the execution backends).
* :mod:`repro.core.learned_router` -- the learned-escalation baseline the
  paper compared against (and found no better than the simple policies).

The replay machinery here is contention-free by design; evaluating the
same tiers under offered load (queueing, batching, autoscaling) lives in
:mod:`repro.service.simulation` — and the gateway's ``SimulatedBackend``
serves the public API straight through it.
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
    billed_node_seconds,
    compose_response_time,
    early_termination_cap,
    require_confidence_threshold,
    should_escalate,
)
from repro.core.bootstrap import WorstCaseEstimate, bootstrap_configuration
from repro.core.configuration import (
    EnsembleConfiguration,
    enumerate_configurations,
)
from repro.core.guarantees import GuaranteeAudit, ToleranceAuditRow, audit_guarantees
from repro.core.learned_router import LogisticEscalationPolicy
from repro.core.metrics import (
    PolicyMetrics,
    build_pricing,
    error_degradation,
    evaluate_policy,
)
from repro.core.outcome_matrix import (
    ConfigurationColumns,
    OutcomeMatrix,
    TrialMetricBlock,
)
from repro.core.outcomes import EnsembleOutcomes, LazyRequestIds
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    EnsemblePolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.core.rule_generator import RoutingRuleGenerator
from repro.core.simulator import TierSimulation, simulate
from repro.core.tiers import ToleranceTier

__all__ = [
    "BackendCapabilityError",
    "ConcurrentPolicy",
    "ConfigurationColumns",
    "DirectBackend",
    "EarlyTerminationPolicy",
    "EnsembleConfiguration",
    "EnsembleOutcomes",
    "EnsemblePolicy",
    "ExecutionBackend",
    "ExecutionOutcome",
    "GatewayClosedError",
    "GuaranteeAudit",
    "Invocation",
    "LazyRequestIds",
    "LogisticEscalationPolicy",
    "MissingVersionError",
    "OutcomeMatrix",
    "PolicyConfigurationError",
    "PolicyExecutor",
    "PolicyMetrics",
    "ReplayBackend",
    "RequestFailedError",
    "RequestValidationError",
    "ResultPendingError",
    "RoutingRuleGenerator",
    "SimulatedBackend",
    "TrialMetricBlock",
    "RoutingRuleTable",
    "SequentialPolicy",
    "SingleVersionPolicy",
    "TierError",
    "TierGateway",
    "TierRouter",
    "TierSimulation",
    "TierTicket",
    "ToleranceAuditRow",
    "ToleranceTier",
    "UnknownObjectiveError",
    "UnroutableToleranceError",
    "WorstCaseEstimate",
    "audit_guarantees",
    "billed_node_seconds",
    "bootstrap_configuration",
    "build_pricing",
    "compose_response_time",
    "early_termination_cap",
    "enumerate_configurations",
    "error_degradation",
    "evaluate_policy",
    "require_confidence_threshold",
    "should_escalate",
    "simulate",
]

#: Gateway names re-exported lazily (PEP 562): the gateway package imports
#: ``repro.core`` submodules, so an eager import here would be circular
#: when the gateway is the import entry point.
_GATEWAY_EXPORTS = (
    "DirectBackend",
    "ReplayBackend",
    "SimulatedBackend",
    "TierGateway",
    "TierTicket",
)


def __getattr__(name):
    if name in _GATEWAY_EXPORTS:
        from repro.service import gateway as _gateway

        return getattr(_gateway, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
