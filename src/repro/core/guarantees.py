"""Held-out audit of the Tolerance Tier accuracy guarantees.

The paper evaluates its guarantees with 10-fold cross validation: rules are
generated from nine folds and the tenth replays production traffic the
generator never saw.  A tier *violates* its guarantee when the error
degradation measured on held-out requests exceeds the tier's tolerance.
The paper reports zero violations; :func:`audit_guarantees` reproduces that
audit and also reports the held-out savings each tier delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.contract import RULEGEN_CONFIDENCE
from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.metrics import build_pricing, evaluate_policy
from repro.core.rule_generator import RoutingRuleGenerator
from repro.service.measurement import MeasurementSet
from repro.service.request import Objective
from repro.stats.resampling import kfold_indices

__all__ = ["GuaranteeAudit", "ToleranceAuditRow", "audit_guarantees"]


@dataclass(frozen=True)
class ToleranceAuditRow:
    """Audit outcome for one tier tolerance, aggregated over folds.

    Attributes:
        tolerance: The tier's promised maximum error degradation.
        worst_degradation: Largest held-out degradation observed across all
            folds.
        mean_degradation: Mean held-out degradation across folds.
        mean_response_time_reduction: Mean held-out response-time saving.
        mean_cost_reduction: Mean held-out invocation-cost saving.
        violations: Number of folds whose held-out degradation exceeded the
            tolerance.
        configurations_used: Names of the configurations the rules selected
            across folds (deduplicated, order preserved).
    """

    tolerance: float
    worst_degradation: float
    mean_degradation: float
    mean_response_time_reduction: float
    mean_cost_reduction: float
    violations: int
    configurations_used: tuple

    @property
    def violated(self) -> bool:
        """Whether any fold violated the guarantee."""
        return self.violations > 0


@dataclass(frozen=True)
class GuaranteeAudit:
    """Full audit across tolerances.

    Attributes:
        service: Audited service name.
        objective: Objective the rules optimised.
        folds: Number of cross-validation folds.
        confidence: Confidence level used by the rule generator.
        rows: One :class:`ToleranceAuditRow` per audited tolerance.
    """

    service: str
    objective: Objective
    folds: int
    confidence: float
    rows: tuple

    @property
    def total_violations(self) -> int:
        """Total guarantee violations across all tolerances and folds."""
        return int(sum(row.violations for row in self.rows))


def audit_guarantees(
    measurements: MeasurementSet,
    tolerances: Sequence[float],
    objective: Objective | str,
    *,
    folds: int = 10,
    confidence: float = RULEGEN_CONFIDENCE,
    seed: int = 0,
    configurations: Optional[Sequence[EnsembleConfiguration]] = None,
    degradation_mode: str = "relative",
    generator_kwargs: Optional[dict] = None,
) -> GuaranteeAudit:
    """Cross-validated audit of the tier guarantees for one service.

    For each fold, rules are generated from the training portion and every
    audited tolerance is replayed on the held-out portion; degradation is
    measured against the most accurate version *on the held-out requests*,
    exactly what a consumer of the 0 % tier would have received.

    Args:
        measurements: Full measurement set of the service.
        tolerances: Tier tolerances to audit.
        objective: Objective the rules optimise.
        folds: Number of cross-validation folds (paper uses 10).
        confidence: Rule-generator confidence level (paper uses 99.9 %).
        seed: Seed for fold shuffling and bootstrap subsampling.
        configurations: Optional explicit design space.
        degradation_mode: ``"relative"`` or ``"absolute"``.
        generator_kwargs: Extra keyword arguments forwarded to
            :class:`~repro.core.rule_generator.RoutingRuleGenerator`.

    Returns:
        A :class:`GuaranteeAudit`.
    """
    if isinstance(objective, str):
        objective = Objective.from_header(objective)
    rng = np.random.default_rng(seed)
    pricing = build_pricing(measurements)
    generator_kwargs = dict(generator_kwargs or {})

    per_tolerance: Dict[float, List[dict]] = {float(t): [] for t in tolerances}

    for fold_index, (train_idx, test_idx) in enumerate(
        kfold_indices(measurements.n_requests, folds, rng=rng)
    ):
        train = measurements.subset(train_idx)
        fold_configurations = (
            configurations
            if configurations is not None
            else enumerate_configurations(train)
        )
        generator = RoutingRuleGenerator(
            train,
            fold_configurations,
            confidence=confidence,
            seed=seed + fold_index,
            degradation_mode=degradation_mode,
            **generator_kwargs,
        )
        table = generator.generate(tolerances, objective)
        baseline_version = measurements.most_accurate_version()
        for tolerance in tolerances:
            configuration = table.config_for(tolerance)
            metrics = evaluate_policy(
                measurements,
                configuration.policy,
                indices=test_idx,
                pricing=pricing,
                baseline_version=baseline_version,
                degradation_mode=degradation_mode,
            )
            per_tolerance[float(tolerance)].append(
                {
                    "degradation": metrics.error_degradation,
                    "response_time_reduction": metrics.response_time_reduction,
                    "cost_reduction": metrics.cost_reduction,
                    "configuration": configuration.name,
                }
            )

    rows = []
    for tolerance in sorted(per_tolerance):
        fold_results = per_tolerance[tolerance]
        degradations = [r["degradation"] for r in fold_results]
        configurations_used = tuple(
            dict.fromkeys(r["configuration"] for r in fold_results)
        )
        rows.append(
            ToleranceAuditRow(
                tolerance=tolerance,
                worst_degradation=max(degradations),
                mean_degradation=float(np.mean(degradations)),
                mean_response_time_reduction=float(
                    np.mean([r["response_time_reduction"] for r in fold_results])
                ),
                mean_cost_reduction=float(
                    np.mean([r["cost_reduction"] for r in fold_results])
                ),
                violations=int(sum(d > tolerance + 1e-9 for d in degradations)),
                configurations_used=configurations_used,
            )
        )
    return GuaranteeAudit(
        service=measurements.service,
        objective=objective,
        folds=folds,
        confidence=confidence,
        rows=tuple(rows),
    )
