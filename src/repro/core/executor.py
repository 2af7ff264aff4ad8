"""The one canonical implementation of ensemble execution semantics.

Three serving paths used to each re-implement the paper's single/seq/conc/et
escalation rules: the vectorized replay policies
(:mod:`repro.core.policies`), the discrete-event engine
(:mod:`repro.service.simulation.engine`) and a hand-rolled synchronous copy
in the pre-gateway service endpoint.  This module is now the single source
of truth:

* the pure decision functions — :func:`should_escalate`,
  :func:`compose_response_time`, :func:`billed_node_seconds`,
  :func:`early_termination_cap`, :func:`require_confidence_threshold` —
  encode the escalation decision, the latency composition and the
  node-seconds billing rules once, and the simulation engine calls them
  per event;
* :class:`PolicyExecutor` composes them into a synchronous per-request
  execution over any :class:`ExecutionBackend` — the gateway's live path
  (``DirectBackend``), and the measurement-replay oracle
  (``ReplayBackend``) that the vectorized policies are pinned against.

The semantics, per policy kind (paper Section IV):

========  =========================  ==========================  =============================
kind      response time              accurate version runs       accurate node-seconds billed
========  =========================  ==========================  =============================
single    latency                    —                           —
seq       fast (+ accurate if esc.)  only on escalation          full, only on escalation
conc      fast / max(fast, acc)      always                      full, always
et        fast / max(fast, acc)      always, cancelled on        min(acc, fast) when the fast
                                     fast acceptance             result is accepted
========  =========================  ==========================  =============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Protocol, Tuple

from repro.core.errors import PolicyConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.configuration import EnsembleConfiguration
    from repro.service.request import ServiceRequest

__all__ = [
    "ExecutionBackend",
    "ExecutionOutcome",
    "Invocation",
    "PolicyExecutor",
    "billed_node_seconds",
    "compose_response_time",
    "early_termination_cap",
    "require_confidence_threshold",
    "should_escalate",
]

#: Policy kinds whose accurate leg launches at request arrival.
CONCURRENT_KINDS: Tuple[str, ...] = ("conc", "et")


# ----------------------------------------------------------------------
# pure decision functions (shared with the discrete-event engine)
# ----------------------------------------------------------------------
def require_confidence_threshold(policy: Any) -> float:
    """The policy's confidence threshold, as a hard requirement.

    A two-version policy without a ``confidence_threshold`` is a
    deployment bug — earlier code silently substituted ``0.5``, which
    turned a misconfigured ensemble into one serving the wrong guarantee.

    Raises:
        PolicyConfigurationError: If the policy has no threshold, or the
            threshold is outside ``[0, 1]``.
    """
    threshold = getattr(policy, "confidence_threshold", None)
    if threshold is None:
        name = getattr(policy, "name", repr(policy))
        raise PolicyConfigurationError(
            f"policy {name!r} (kind {getattr(policy, 'kind', '?')!r}) has no "
            "confidence_threshold; two-version escalation policies must be "
            "configured with an explicit threshold"
        )
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise PolicyConfigurationError(
            f"confidence_threshold must be in [0, 1], got {threshold}"
        )
    return threshold


def should_escalate(fast_confidence: float, threshold: float) -> bool:
    """The escalation decision: escalate when the fast result is unsure."""
    return fast_confidence < threshold


def compose_response_time(
    kind: str,
    fast_latency_s: float,
    accurate_latency_s: Optional[float],
    escalated: bool,
) -> float:
    """End-to-end response time of a two-version execution.

    A non-escalated request responds at the fast latency regardless of
    kind.  An escalated ``seq`` request pays both latencies back to back;
    the concurrent kinds overlap them.
    """
    if not escalated:
        return fast_latency_s
    if accurate_latency_s is None:
        raise ValueError("an escalated request needs an accurate latency")
    if kind == "seq":
        return fast_latency_s + accurate_latency_s
    return max(fast_latency_s, accurate_latency_s)


def early_termination_cap(
    accurate_seconds: float, fast_solo_seconds: float
) -> float:
    """Billed accurate node-seconds after an ``et`` cancellation.

    The accurate job is killed the moment the fast result is accepted, so
    its wasted node time is bounded by the fast execution's solo time.
    """
    return min(accurate_seconds, fast_solo_seconds)


def billed_node_seconds(
    kind: str,
    fast_version: str,
    accurate_version: str,
    fast_latency_s: float,
    accurate_latency_s: Optional[float],
    escalated: bool,
) -> Dict[str, float]:
    """Node-seconds billed per version for a two-version execution.

    Insertion order is fast-then-accurate; the gateway derives
    ``versions_used`` from the keys, so this order is part of the response
    contract.
    """
    if escalated:
        if accurate_latency_s is None:
            raise ValueError("an escalated request consumed accurate time")
        return {
            fast_version: fast_latency_s,
            accurate_version: accurate_latency_s,
        }
    seconds = {fast_version: fast_latency_s}
    if kind == "conc":
        # The accurate version runs to completion on every request.
        seconds[accurate_version] = accurate_latency_s
    elif kind == "et":
        seconds[accurate_version] = early_termination_cap(
            accurate_latency_s, fast_latency_s
        )
    return seconds


# ----------------------------------------------------------------------
# synchronous execution over a backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Invocation:
    """One version's answer to one request, as a backend reports it.

    Attributes:
        output: The model output (a transcript, a class id, ...).
        confidence: The version's confidence in the output.
        latency_s: Service latency of the invocation.
        error: Measured error of the output, when the backend knows it
            (replay backends do; live backends may not).
    """

    output: Any
    confidence: float
    latency_s: float
    error: Optional[float] = None


class ExecutionBackend(Protocol):
    """What :class:`PolicyExecutor` needs from an execution substrate.

    Synchronous backends (live dispatch, measurement replay) implement
    :meth:`invoke` and :meth:`cost_of`; the deferred simulation backend
    instead executes whole sessions under a virtual clock (see
    :mod:`repro.service.gateway.simulated`) and never enters the
    executor's synchronous path.
    """

    #: Whether :meth:`invoke` produces a result immediately.  Deferred
    #: backends resolve requests at drain time instead.
    synchronous: bool

    #: Versions the backend can execute, or ``None`` when unknown.
    versions: Optional[Tuple[str, ...]]

    def invoke(self, version: str, request: "ServiceRequest") -> Invocation:
        """Execute one request on one version."""
        ...

    def cost_of(self, node_seconds: Mapping[str, float]):
        """Price a bundle of node-seconds; returns an object with an
        ``invocation_cost`` attribute."""
        ...


@dataclass(frozen=True)
class ExecutionOutcome:
    """Everything one ensemble execution produced.

    This is the executor's native result type; the gateway narrows it to a
    consumer-facing :class:`~repro.service.request.ServiceResponse`, while
    the replay oracle keeps the :attr:`error` column the response hides.
    """

    request_id: str
    result: Any
    versions_used: Tuple[str, ...]
    response_time_s: float
    node_seconds: Dict[str, float]
    invocation_cost: float
    confidence: float
    escalated: bool
    error: Optional[float] = None


class PolicyExecutor:
    """Execute ensemble configurations synchronously over a backend.

    This is the canonical composition of the decision functions above:
    dispatch the fast version, decide escalation from its confidence,
    dispatch the accurate version exactly when the policy kind requires
    it, and compose latency, billing and the answering result.

    Args:
        backend: The execution substrate; must be synchronous.
    """

    def __init__(self, backend: ExecutionBackend) -> None:
        self.backend = backend

    def execute(
        self, configuration: "EnsembleConfiguration", request: "ServiceRequest"
    ) -> ExecutionOutcome:
        """Run one request through one configuration."""
        if configuration.kind == "single":
            return self._execute_single(configuration, request)
        return self._execute_two_version(configuration, request)

    # ------------------------------------------------------------------
    def _execute_single(
        self, configuration: "EnsembleConfiguration", request: "ServiceRequest"
    ) -> ExecutionOutcome:
        version = configuration.policy.versions[0]
        invocation = self.backend.invoke(version, request)
        node_seconds = {version: invocation.latency_s}
        cost = self.backend.cost_of(node_seconds)
        return ExecutionOutcome(
            request_id=request.request_id,
            result=invocation.output,
            versions_used=(version,),
            response_time_s=invocation.latency_s,
            node_seconds=node_seconds,
            invocation_cost=cost.invocation_cost,
            confidence=invocation.confidence,
            escalated=False,
            error=invocation.error,
        )

    def _execute_two_version(
        self, configuration: "EnsembleConfiguration", request: "ServiceRequest"
    ) -> ExecutionOutcome:
        policy = configuration.policy
        kind = configuration.kind
        fast_version: str = policy.fast_version
        accurate_version: str = policy.accurate_version
        threshold = require_confidence_threshold(policy)

        fast = self.backend.invoke(fast_version, request)
        escalated = should_escalate(fast.confidence, threshold)
        # The accurate leg executes exactly when the policy kind launched
        # it (conc/et launch at arrival) or escalation demands it (seq).
        accurate: Optional[Invocation] = None
        if escalated or kind in CONCURRENT_KINDS:
            accurate = self.backend.invoke(accurate_version, request)

        accurate_latency = accurate.latency_s if accurate is not None else None
        node_seconds = billed_node_seconds(
            kind,
            fast_version,
            accurate_version,
            fast.latency_s,
            accurate_latency,
            escalated,
        )
        cost = self.backend.cost_of(node_seconds)
        answering = accurate if escalated else fast
        return ExecutionOutcome(
            request_id=request.request_id,
            result=answering.output,
            versions_used=tuple(node_seconds.keys()),
            response_time_s=compose_response_time(
                kind, fast.latency_s, accurate_latency, escalated
            ),
            node_seconds=node_seconds,
            invocation_cost=cost.invocation_cost,
            confidence=answering.confidence,
            escalated=escalated,
            error=answering.error,
        )
