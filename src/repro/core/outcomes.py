"""Per-request outcomes of an ensembling policy.

A policy evaluated over a measurement set produces, for every request, the
error of the result the consumer actually receives, the end-to-end response
time, and the node-seconds each service version consumed (including wasted
concurrent work).  :class:`EnsembleOutcomes` carries those arrays plus the
aggregation helpers the metrics layer builds on.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.service.pricing import CostBreakdown, PricingModel

__all__ = ["EnsembleOutcomes", "LazyRequestIds"]


class LazyRequestIds(SequenceABC):
    """Request ids resolved from row indices only on access.

    Policy evaluation used to materialise an O(n) tuple of request-id
    strings on *every* call — a real cost inside the bootstrap loop, which
    evaluates thousands of subsamples and never looks at the ids.  This
    view stores the source id tuple plus the selected row indices and
    resolves ids lazily; iterating, slicing and comparing materialise (and
    cache) the tuple once.

    Args:
        source: The full request-id sequence (row order of the
            measurement set).
        rows: Integer row indices selecting and ordering the ids.
    """

    __slots__ = ("_source", "_rows", "_materialized")

    def __init__(self, source: Sequence[str], rows: np.ndarray) -> None:
        self._source = source
        self._rows = np.asarray(rows, dtype=int)
        self._materialized: Optional[Tuple[str, ...]] = None

    def materialize(self) -> Tuple[str, ...]:
        """The resolved id tuple (built on first call, then cached)."""
        if self._materialized is None:
            self._materialized = tuple(
                self._source[i] for i in self._rows
            )
        return self._materialized

    def __len__(self) -> int:
        return int(self._rows.size)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.materialize()[item]
        return self._source[int(self._rows[item])]

    def __iter__(self):
        return iter(self.materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyRequestIds):
            return self.materialize() == other.materialize()
        if isinstance(other, (tuple, list)):
            return self.materialize() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:
        return f"LazyRequestIds(n={len(self)})"


@dataclass
class EnsembleOutcomes:
    """Outcome of running one policy over a set of measured requests.

    Attributes:
        policy_name: Name of the policy that produced the outcomes.
        request_ids: The requests covered (row order of all arrays); either
            a materialised tuple or a :class:`LazyRequestIds` view.
        error: Error of the result returned to the consumer, per request.
        response_time_s: End-to-end response time, per request.
        node_seconds: Node-seconds consumed per service version, per request
            (arrays aligned with ``request_ids``); includes work whose
            result was discarded.
        escalated: Whether more than one version contributed work.
    """

    policy_name: str
    request_ids: Sequence[str]
    error: np.ndarray
    response_time_s: np.ndarray
    node_seconds: Dict[str, np.ndarray]
    escalated: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self) -> None:
        n = len(self.request_ids)
        self.error = np.asarray(self.error, dtype=float)
        self.response_time_s = np.asarray(self.response_time_s, dtype=float)
        if self.error.shape != (n,) or self.response_time_s.shape != (n,):
            raise ValueError("error/response_time arrays must be one value per request")
        for version, seconds in self.node_seconds.items():
            seconds = np.asarray(seconds, dtype=float)
            if seconds.shape != (n,):
                raise ValueError(
                    f"node_seconds[{version!r}] must have one value per request"
                )
            self.node_seconds[version] = seconds
        if self.escalated.size == 0:
            self.escalated = np.zeros(n, dtype=bool)
        self.escalated = np.asarray(self.escalated, dtype=bool)
        if self.escalated.shape != (n,):
            raise ValueError("escalated must have one value per request")

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Number of requests covered."""
        return len(self.request_ids)

    def mean_error(self) -> float:
        """Mean error of the results returned to the consumer."""
        return float(self.error.mean())

    def mean_response_time(self) -> float:
        """Mean end-to-end response time in seconds."""
        return float(self.response_time_s.mean())

    def escalation_rate(self) -> float:
        """Fraction of requests that involved more than one version."""
        return float(self.escalated.mean())

    def cost(self, pricing: PricingModel) -> CostBreakdown:
        """Price the outcomes under a pricing model.

        Args:
            pricing: Pricing model covering every version that did work.
        """
        per_version = {
            version: pricing.compute_cost(version, float(seconds.sum()))
            for version, seconds in self.node_seconds.items()
        }
        iaas = sum(per_version.values())
        invocation = (
            self.n_requests * pricing.per_request_fee + pricing.markup * iaas
        )
        return CostBreakdown(
            invocation_cost=invocation,
            iaas_cost=iaas,
            per_version_iaas=per_version,
            n_requests=self.n_requests,
        )

    def mean_invocation_cost(self, pricing: PricingModel) -> float:
        """Average invocation cost per request."""
        return self.cost(pricing).invocation_cost / self.n_requests
