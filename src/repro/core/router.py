"""Serving-time routing: map a requested tier to a configuration.

The rule generator runs offline; what the load balancer needs online is a
fast lookup from the ``(Tolerance, Objective)`` headers of an incoming
request to the ensemble configuration that should serve it.
:class:`RoutingRuleTable` is the per-objective lookup table the generator
emits, and :class:`TierRouter` bundles the tables for all objectives.

Two online consumers share this router:

* :class:`~repro.service.gateway.gateway.TierGateway` executes the chosen
  configuration synchronously against a live cluster (one request at a
  time, no contention), and
* :class:`~repro.service.simulation.engine.ServingSimulator` executes it
  under offered load inside a discrete-event loop, where the same routing
  decision additionally determines which pools' queues the request joins
  (its drain calls :meth:`TierRouter.route` once per distinct annotation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.bootstrap import WorstCaseEstimate
from repro.core.configuration import EnsembleConfiguration
from repro.service.request import Objective, ServiceRequest

__all__ = ["RoutingRuleTable", "TierRouter"]


@dataclass
class RoutingRuleTable:
    """Routing rules for one objective.

    Attributes:
        objective: The objective the rules optimise.
        baseline: The most accurate configuration (serves the 0 % tier and
            any tolerance tighter than the smallest rule).
        rules: Mapping from tier tolerance to the chosen configuration.
        estimates: Worst-case estimates backing each rule (when available).
        confidence: Confidence level of the worst-case estimates.
    """

    objective: Objective
    baseline: EnsembleConfiguration
    rules: Dict[float, EnsembleConfiguration]
    estimates: Dict[float, WorstCaseEstimate] = field(default_factory=dict)
    confidence: float = 0.999

    @property
    def tolerances(self) -> Sequence[float]:
        """The tier tolerances covered, ascending."""
        return sorted(self.rules)

    def config_for(self, tolerance: float) -> EnsembleConfiguration:
        """The configuration serving a requested tolerance.

        The request is served by the rule of the *largest* tier tolerance
        that does not exceed the requested one — i.e. the most aggressive
        tier whose guarantee still covers the request.  Requests tighter
        than every rule fall back to the most accurate configuration.

        Args:
            tolerance: The consumer's requested tolerance.
        """
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        eligible = [t for t in self.rules if t <= tolerance + 1e-12]
        if not eligible:
            return self.baseline
        return self.rules[max(eligible)]

    def estimate_for(self, tolerance: float) -> Optional[WorstCaseEstimate]:
        """Worst-case estimate backing the rule used for a tolerance."""
        eligible = [t for t in self.rules if t <= tolerance + 1e-12]
        if not eligible:
            return None
        return self.estimates.get(max(eligible))


class TierRouter:
    """Routes ``(tolerance, objective)`` to an ensemble configuration.

    Args:
        tables: One :class:`RoutingRuleTable` per supported objective.

    Raises:
        ValueError: If no tables are supplied.
    """

    def __init__(self, tables: Dict[Objective, RoutingRuleTable]) -> None:
        if not tables:
            raise ValueError("a tier router needs at least one rule table")
        for objective, table in tables.items():
            if table.objective != objective:
                raise ValueError(
                    f"table registered under {objective} was generated for "
                    f"{table.objective}"
                )
        self._tables = dict(tables)

    @property
    def objectives(self) -> Sequence[Objective]:
        """Objectives the router can serve."""
        return tuple(self._tables.keys())

    def table_for(self, objective: Objective) -> RoutingRuleTable:
        """The rule table of one objective.

        Raises:
            KeyError: If the objective has no table.
        """
        try:
            return self._tables[objective]
        except KeyError:
            raise KeyError(
                f"no routing rules for objective {objective.value!r}; "
                f"available: {[o.value for o in self._tables]}"
            ) from None

    def route(
        self, tolerance: float, objective: Objective | str
    ) -> EnsembleConfiguration:
        """Pick the configuration serving a requested tier.

        Args:
            tolerance: Requested error tolerance.
            objective: Requested objective (enum or header string).
        """
        if isinstance(objective, str):
            objective = Objective.from_header(objective)
        return self.table_for(objective).config_for(tolerance)

    def route_request(self, request: ServiceRequest) -> EnsembleConfiguration:
        """Pick the configuration serving an annotated request.

        Convenience wrapper over :meth:`route` reading the request's
        ``Tolerance`` / ``Objective`` annotation directly (the serving
        simulator's drain routes once per distinct annotation instead).
        """
        return self.route(request.tolerance, request.objective)
