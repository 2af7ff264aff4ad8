"""Admission control: shed or degrade load before queues explode.

When an SLO is in BREACH the cheapest request to serve is the one you
never enqueue.  :class:`AdmissionController` is the decision point the
gateway (and the closed-loop engine) consults once per arriving request;
under pressure it answers with one of two policies:

* ``probabilistic`` — shed an incoming request with a fixed probability,
  drawn from a dedicated seeded RNG (so closed-loop runs stay
  bit-deterministic and healthy runs consume no draws at all);
* ``degrade`` — shed nothing: force-degrade incoming requests to the
  fast tier (a single-version configuration on the planned ensemble's
  fast version), trading accuracy for capacity instead of dropping work.

Shed and degraded requests are first-class outcomes: the engine records
them (``RequestRecord.shed`` / ``RequestRecord.degraded``), the report's
conservation laws account them (submitted = completed + failed + shed),
and a gateway ticket for a shed request resolves with a structured
:class:`~repro.core.errors.RequestShedError` — it never hangs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import checks
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SingleVersionPolicy
from repro.service.control.slo import SLOState

__all__ = [
    "AdmissionAction",
    "AdmissionDecision",
    "AdmissionSpec",
    "AdmissionController",
]

#: Policies the controller knows.
_POLICIES = ("probabilistic", "degrade")


class AdmissionAction(enum.Enum):
    """What happens to one arriving request."""

    ADMIT = "admit"
    SHED = "shed"
    DEGRADE = "degrade"


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer for one request.

    Attributes:
        action: Admit, shed, or degrade.
        configuration: The replacement configuration to serve the
            request with (set exactly when ``action`` is DEGRADE).
        reason: Short human-readable cause, for logs and errors.
    """

    action: AdmissionAction
    configuration: Optional[EnsembleConfiguration] = None
    reason: str = ""


#: The admit decision needs no per-request state; share one instance.
ADMIT = AdmissionDecision(AdmissionAction.ADMIT)


@dataclass(frozen=True)
class AdmissionSpec:
    """Declarative admission policy for a :class:`ControlSpec`.

    Attributes:
        policy: ``"probabilistic"`` or ``"degrade"``.
        shed_probability: Shed probability under BREACH
            (``probabilistic`` policy).
    """

    policy: str = "probabilistic"
    shed_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; "
                f"expected one of {_POLICIES}"
            )
        checks.probability("shed_probability", self.shed_probability)


def degraded_configuration(
    planned: EnsembleConfiguration,
) -> Optional[EnsembleConfiguration]:
    """The fast-tier downgrade of a planned ensemble.

    A two-version ensemble degrades to a single-version configuration on
    its fast version; a single-version plan has nothing cheaper to fall
    back to (returns ``None``, and the request is admitted as planned).
    """
    policy = planned.policy
    if planned.kind == "single":
        return None
    return EnsembleConfiguration(
        f"{planned.config_id}@degraded", SingleVersionPolicy(policy.fast_version)
    )


class AdmissionController:
    """Per-request admission decisions driven by the SLO aggregate state.

    Args:
        spec: The declarative policy.
        rng: Dedicated generator for probabilistic sheds.  Only the
            ``probabilistic`` policy ever draws from it, and only while
            the plane is in BREACH — a healthy run consumes no
            randomness here.
    """

    def __init__(
        self, spec: AdmissionSpec, *, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.spec = spec
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.n_shed = 0
        self.n_degraded = 0
        #: id(planned) -> (planned, its degrade decision): one fallback per
        #: planned configuration (the tuple keeps the id unique).
        self._degraded: dict = {}

    def decide(
        self, *, state: SLOState, planned: EnsembleConfiguration
    ) -> AdmissionDecision:
        """Decide one arriving request's fate.

        Args:
            state: The plane's aggregate SLO state at arrival.
            planned: The configuration routing chose for the request
                (the ``degrade`` policy derives its fallback from it).
        """
        if state is not SLOState.BREACH:
            return ADMIT
        spec = self.spec
        if spec.policy == "probabilistic":
            if float(self._rng.uniform()) < spec.shed_probability:
                self.n_shed += 1
                return AdmissionDecision(
                    AdmissionAction.SHED,
                    reason=f"probabilistic shed (p={spec.shed_probability:g})",
                )
            return ADMIT
        # degrade
        entry = self._degraded.get(id(planned))
        if entry is None:
            fallback = degraded_configuration(planned)
            entry = self._degraded[id(planned)] = (
                planned,
                ADMIT
                if fallback is None
                else AdmissionDecision(
                    AdmissionAction.DEGRADE,
                    configuration=fallback,
                    reason=f"degraded to fast tier ({fallback.config_id})",
                ),
            )
        decision = entry[1]
        if decision is not ADMIT:
            self.n_degraded += 1
        return decision
