"""The routing-rule generator (paper Fig. 7).

Given training measurements, a candidate configuration space and a
confidence level, the generator bootstraps every configuration to a
confident worst-case estimate and can then emit routing rules: for each
Tolerance Tier, the configuration that optimises the tier's objective while
keeping its worst-case error degradation inside the tier's tolerance.

The public surface intentionally mirrors the paper's pseudo-code: the
constructor bootstraps every configuration (``self.results``), and
``generate(tolerances, objective)`` produces the rule table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import checks, contract
from repro.core.bootstrap import WorstCaseEstimate, bootstrap_configurations
from repro.core.configuration import (
    EnsembleConfiguration,
    check_unique_ids,
    enumerate_configurations,
)
from repro.core.outcome_matrix import OutcomeMatrix
from repro.core.policies import SingleVersionPolicy
from repro.core.router import RoutingRuleTable
from repro.service.measurement import MeasurementSet
from repro.service.request import Objective
from repro.stats.confidence import ConfidenceTest

__all__ = ["RoutingRuleGenerator"]


class RoutingRuleGenerator:
    """Bootstraps candidate configurations and emits tier routing rules.

    Args:
        train_measurements: Measurements of representative client traffic
            (the paper assumes the provider curates such a dataset).
        configurations: Candidate design space, with distinct ids;
            defaults to
            :func:`~repro.core.configuration.enumerate_configurations` over
            the training measurements.
        confidence: Confidence level of the worst-case estimates (the paper
            uses 99.9 %).
        sample_fraction: Fraction of the training data per bootstrap trial.
        seed: Seed for all bootstrap subsampling.
        degradation_mode: ``"relative"`` (paper default) or ``"absolute"``.
        min_trials: Minimum bootstrap trials per configuration.
        max_trials: Safety cap on bootstrap trials per configuration.

    Every configuration is bootstrapped against one shared
    :class:`~repro.core.outcome_matrix.OutcomeMatrix`: one pricing model
    and one cached baseline evaluation for all configurations and trials.

    Raises:
        ValueError: If the space is empty, two configurations share an id,
            or a policy is one the outcome matrix cannot expand.
    """

    def __init__(
        self,
        train_measurements: MeasurementSet,
        configurations: Optional[Sequence[EnsembleConfiguration]] = None,
        *,
        confidence: float = contract.RULEGEN_CONFIDENCE,
        sample_fraction: float = contract.RULEGEN_SAMPLE_FRACTION,
        seed: int = 0,
        degradation_mode: str = "relative",
        min_trials: int = contract.RULEGEN_MIN_TRIALS,
        max_trials: int = contract.RULEGEN_MAX_TRIALS,
    ) -> None:
        self.measurements = train_measurements
        self.configurations: List[EnsembleConfiguration] = check_unique_ids(
            configurations
            if configurations is not None
            else enumerate_configurations(train_measurements)
        )
        if not self.configurations:
            raise ValueError("the configuration space is empty")
        self.confidence = confidence
        self.degradation_mode = degradation_mode
        checks.positive("sample_fraction", sample_fraction)
        self.sample_fraction = checks.probability("sample_fraction", sample_fraction)
        self._confidence_test = ConfidenceTest(
            confidence=confidence, min_trials=min_trials, max_trials=max_trials
        )
        self._rng = np.random.default_rng(seed)
        self.baseline_version = train_measurements.most_accurate_version()

        #: Shared version columns; each configuration's outcome columns
        #: are expanded when its bootstrap runs.  A policy the matrix
        #: cannot expand (a custom ``evaluate``) is refused here.
        self.outcome_matrix = OutcomeMatrix.build(
            train_measurements,
            self.configurations,
            baseline_version=self.baseline_version,
            degradation_mode=degradation_mode,
        )

        #: Worst-case estimate per configuration, aligned with
        #: :attr:`configurations` (mirrors ``self.results`` in Fig. 7).
        #: One trial stream serves them all, in order.
        self.results: List[WorstCaseEstimate] = bootstrap_configurations(
            self.outcome_matrix,
            self.configurations,
            confidence_test=self._confidence_test,
            rng=self._rng,
            sample_fraction=self.sample_fraction,
        )

    def estimate_for(self, config_id: str) -> WorstCaseEstimate:
        """Worst-case estimate of a configuration by id."""
        for estimate in self.results:
            if estimate.config_id == config_id:
                return estimate
        raise KeyError(f"no bootstrap result for configuration {config_id!r}")

    # ------------------------------------------------------------------
    # rule generation
    # ------------------------------------------------------------------
    def _baseline_configuration(self) -> EnsembleConfiguration:
        """The most accurate single-version configuration (the 0 % tier)."""
        for configuration in self.configurations:
            if (
                configuration.kind == "single"
                and configuration.versions == (self.baseline_version,)
            ):
                return configuration
        # The design space may have been restricted; synthesise the baseline.
        return EnsembleConfiguration(
            config_id="cfg_baseline",
            policy=SingleVersionPolicy(self.baseline_version),
        )

    def generate(
        self,
        tolerances: Sequence[float],
        objective: Objective | str,
    ) -> RoutingRuleTable:
        """Generate routing rules for a set of Tolerance Tiers.

        For each tolerance the generator picks, among the configurations
        whose worst-case error degradation fits inside the tolerance, the
        one minimising the worst-case value of the tier's objective.  If no
        configuration fits (which can only happen for tolerances tighter
        than the baseline's own bootstrap noise), the most accurate single
        version is used.

        Args:
            tolerances: Tier tolerances (e.g. ``default_tolerance_grid()``).
            objective: ``Objective`` or its header string.

        Returns:
            A :class:`~repro.core.router.RoutingRuleTable`.
        """
        if isinstance(objective, str):
            objective = Objective.from_header(objective)
        baseline_configuration = self._baseline_configuration()

        rules: Dict[float, EnsembleConfiguration] = {}
        estimates: Dict[float, WorstCaseEstimate] = {}
        for tolerance in tolerances:
            checks.non_negative("tolerance", tolerance)
            best_configuration: Optional[EnsembleConfiguration] = None
            best_estimate: Optional[WorstCaseEstimate] = None
            best_value = float("inf")
            for configuration, estimate in zip(self.configurations, self.results):
                if estimate.error_degradation > tolerance:
                    continue
                value = estimate.objective_value(objective.value)
                if value < best_value:
                    best_configuration = configuration
                    best_estimate = estimate
                    best_value = value
            if best_configuration is None:
                best_configuration = baseline_configuration
                best_estimate = self._estimate_or_none(baseline_configuration)
            rules[float(tolerance)] = best_configuration
            if best_estimate is not None:
                estimates[float(tolerance)] = best_estimate

        return RoutingRuleTable(
            objective=objective,
            baseline=baseline_configuration,
            rules=rules,
            estimates=estimates,
            confidence=self.confidence,
        )

    def _estimate_or_none(
        self, configuration: EnsembleConfiguration
    ) -> Optional[WorstCaseEstimate]:
        try:
            return self.estimate_for(configuration.config_id)
        except KeyError:
            return None
