"""Service requests and responses.

The paper's API consumers annotate each request with two extra headers:

.. code-block:: text

    curl --header Tolerance: 0.01
         --header Objective: response-time
         --data-binary @input-file-name
         -X POST http://cloud-service/compute

:class:`ServiceRequest` models exactly that annotation (plus an opaque
payload reference), and :class:`ServiceResponse` carries the result back
together with the measured latency and billed cost so consumers can verify
what they were served.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = [
    "Objective",
    "ServiceRequest",
    "ServiceResponse",
    "require_valid_tolerance",
]


class Objective(enum.Enum):
    """What a Tolerance Tier optimises once its accuracy bound is met."""

    RESPONSE_TIME = "response-time"
    COST = "cost"

    @classmethod
    def from_header(cls, value: str) -> "Objective":
        """Parse the ``Objective:`` header value.

        Raises:
            ValueError: If the value names no known objective.
        """
        normalised = value.strip().lower()
        for objective in cls:
            if objective.value == normalised:
                return objective
        raise ValueError(
            f"unknown objective {value!r}; expected one of "
            f"{[o.value for o in cls]}"
        )


def require_valid_tolerance(tolerance: float) -> None:
    """Refuse a ``Tolerance`` annotation that names no tier.

    Raises:
        ValueError: If ``tolerance`` is NaN, infinite or negative.
    """
    if not math.isfinite(tolerance):
        raise ValueError(
            f"tolerance must be finite, got {tolerance}; NaN and "
            "infinite tolerances name no tier"
        )
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")


@dataclass(frozen=True)
class ServiceRequest:
    """One annotated request to the MLaaS endpoint.

    Attributes:
        request_id: Stable identifier (an utterance id or image id).
        payload: Opaque payload the service version understands (an
            :class:`~repro.datasets.voxforge.Utterance`, an image array,
            or — in measurement-replay mode — just the request id).
        tolerance: Acceptable relative error degradation w.r.t. the most
            accurate tier, e.g. ``0.01`` for the 1 % tier.  ``0.0`` requests
            the most accurate tier.
        objective: What to optimise subject to the tolerance.
        metadata: Free-form annotation (consumer id, deadline, ...).
    """

    request_id: str
    payload: Any
    tolerance: float = 0.0
    objective: Objective = Objective.RESPONSE_TIME
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_valid_tolerance(self.tolerance)

    @classmethod
    def from_headers(
        cls,
        request_id: str,
        payload: Any,
        headers: Mapping[str, str],
    ) -> "ServiceRequest":
        """Build a request from HTTP-style headers.

        Recognised headers (case-insensitive, whitespace-tolerant):
        ``Tolerance`` and ``Objective``; all others are preserved in
        :attr:`metadata`.

        Raises:
            ValueError: If a ``Tolerance`` value is not a number, a
                recognised header appears more than once (under any
                casing), or the parsed annotation fails request
                validation (negative / non-finite tolerance, unknown
                objective).
        """
        tolerance = 0.0
        objective = Objective.RESPONSE_TIME
        metadata = {}
        seen = set()
        for key, value in headers.items():
            lowered = key.strip().lower()
            if lowered in ("tolerance", "objective"):
                if lowered in seen:
                    raise ValueError(
                        f"duplicate {lowered.capitalize()!s} header on "
                        f"request {request_id!r}; annotation headers must "
                        "appear exactly once"
                    )
                seen.add(lowered)
            if lowered == "tolerance":
                try:
                    tolerance = float(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"malformed Tolerance header on request "
                        f"{request_id!r}: {value!r} is not a number"
                    ) from None
            elif lowered == "objective":
                objective = Objective.from_header(value)
            else:
                metadata[key] = value
        return cls(
            request_id=request_id,
            payload=payload,
            tolerance=tolerance,
            objective=objective,
            metadata=metadata,
        )


@dataclass(frozen=True)
class ServiceResponse:
    """The service's answer to one request.

    Attributes:
        request_id: Identifier of the request being answered.
        result: The model output (a transcript, a class id, ...).
        versions_used: Names of the service versions that actually ran.
        response_time_s: End-to-end service latency for this request.
        invocation_cost: Amount billed to the consumer for this request.
        tier: The tolerance value of the tier that served the request, or
            ``None`` for a conventional (non-tiered) deployment.
        confidence: The serving version's confidence in the result.
    """

    request_id: str
    result: Any
    versions_used: tuple
    response_time_s: float
    invocation_cost: float
    tier: Optional[float] = None
    confidence: float = 1.0
