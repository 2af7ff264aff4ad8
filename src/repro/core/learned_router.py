"""Learned-escalation baseline (the paper's "ML-based router" ablation).

The paper reports evaluating richer alternatives to the simple
confidence-threshold policies — including a machine-learning-based router —
and finding that the simple policies outperformed them, so they were left
out of the main design.  To let the benchmark suite reproduce that
comparison, this module provides a learned escalation policy: a logistic
model is fit on training measurements to predict, from the fast version's
confidence, whether its result will be wrong; a request is escalated to the
accurate version when the predicted error probability exceeds a cut-off.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import checks
from repro.core.outcomes import EnsembleOutcomes, LazyRequestIds
from repro.core.policies import EnsemblePolicy
from repro.service.measurement import MeasurementSet

__all__ = ["LogisticEscalationPolicy"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class LogisticEscalationPolicy(EnsemblePolicy):
    """Sequential escalation driven by a learned error predictor.

    Args:
        fast_version: The "little" version tried first.
        accurate_version: The "big" version escalated to.
        escalation_probability: Escalate when the predicted probability that
            the fast result is wrong exceeds this cut-off.
        error_threshold: A fast result counts as "wrong" for training when
            its error exceeds this value (0.0 works for both WER and top-1).
        learning_rate: Gradient-descent step size for the logistic fit.
        iterations: Number of full-batch gradient steps.
    """

    kind = "learned"

    def __init__(
        self,
        fast_version: str,
        accurate_version: str,
        *,
        escalation_probability: float = 0.5,
        error_threshold: float = 0.0,
        learning_rate: float = 0.5,
        iterations: int = 300,
    ) -> None:
        if fast_version == accurate_version:
            raise ValueError("fast and accurate versions must differ")
        self.fast_version = fast_version
        self.accurate_version = accurate_version
        self.escalation_probability = checks.unit_open(
            "escalation_probability", escalation_probability
        )
        self.error_threshold = checks.non_negative("error_threshold", error_threshold)
        self.learning_rate = checks.positive("learning_rate", learning_rate)
        self.iterations = checks.integer("iterations", iterations, minimum=1)
        self._weight = 0.0
        self._bias = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    # policy interface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return (
            f"learned[{self.fast_version}->{self.accurate_version}"
            f"@p{self.escalation_probability:.2f}]"
        )

    @property
    def versions(self):
        return (self.fast_version, self.accurate_version)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> "LogisticEscalationPolicy":
        """Fit the logistic error predictor on training measurements.

        Args:
            measurements: Training measurement set.
            indices: Optional row subset to fit on.

        Returns:
            ``self`` (for chaining).
        """
        rows = self._select_rows(measurements, indices)
        fast = measurements.version_index(self.fast_version)
        confidence = measurements.confidence[rows, fast]
        wrong = (measurements.error[rows, fast] > self.error_threshold).astype(float)

        weight, bias = 0.0, 0.0
        for _ in range(self.iterations):
            logits = weight * confidence + bias
            predictions = _sigmoid(logits)
            gradient = predictions - wrong
            weight -= self.learning_rate * float((gradient * confidence).mean())
            bias -= self.learning_rate * float(gradient.mean())
        self._weight, self._bias = weight, bias
        self._fitted = True
        return self

    def predict_error_probability(self, confidence: np.ndarray) -> np.ndarray:
        """Predicted probability that the fast result is wrong."""
        if not self._fitted:
            raise RuntimeError("policy must be fit before prediction")
        return _sigmoid(self._weight * np.asarray(confidence, dtype=float) + self._bias)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        if not self._fitted:
            raise RuntimeError("policy must be fit before evaluation")
        rows = self._select_rows(measurements, indices)
        fast = measurements.version_index(self.fast_version)
        accurate = measurements.version_index(self.accurate_version)

        fast_error = measurements.error[rows, fast]
        fast_latency = measurements.latency_s[rows, fast]
        fast_confidence = measurements.confidence[rows, fast]
        accurate_error = measurements.error[rows, accurate]
        accurate_latency = measurements.latency_s[rows, accurate]

        escalate = (
            self.predict_error_probability(fast_confidence)
            > self.escalation_probability
        )
        error = np.where(escalate, accurate_error, fast_error)
        response = np.where(escalate, fast_latency + accurate_latency, fast_latency)
        return EnsembleOutcomes(
            policy_name=self.name,
            request_ids=LazyRequestIds(measurements.request_ids, rows),
            error=error,
            response_time_s=response,
            node_seconds={
                self.fast_version: fast_latency.copy(),
                self.accurate_version: np.where(escalate, accurate_latency, 0.0),
            },
            escalated=escalate,
        )
