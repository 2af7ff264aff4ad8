"""The routing-rule generator's bootstrap as a per-trial loop.

Reference for ``tests/core/test_outcome_matrix.py`` and
``tests/stats/test_confidence.py``: the paper's Fig. 7 loop written out one
trial at a time, sharing no code with ``repro.core.bootstrap``, the outcome
matrix or the prefix scan of ``ConfidenceTest.first_satisfied``.

* Every configuration of a design space is bootstrapped, in order, over
  **one shared rng**, one ``rng.choice`` per trial, so configuration
  ``k``'s trials depend on how many draws configurations ``0..k-1``
  consumed.  That shared stream is what makes the comparison a test of
  the blocked loop's trial stream and rng replay, not only of its
  arithmetic.
* Each trial is scored by ``repro.core.metrics.evaluate_policy`` on the
  trial's rows (:func:`score_trial`).
* The sample size (:func:`sample_size`) and the stopping rule
  (:func:`spread_is_confident`, :func:`all_satisfied`) are this file's own
  copies of the paper's, so a change to either on the fast path shows.

Do not optimise this file.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.special import ndtri

from repro.core.bootstrap import WorstCaseEstimate
from repro.core.configuration import EnsembleConfiguration
from repro.core.metrics import PolicyMetrics, build_pricing, evaluate_policy
from repro.core.policies import SingleVersionPolicy
from repro.service.measurement import MeasurementSet
from repro.service.pricing import PricingModel
from repro.stats.confidence import ConfidenceTest

#: Relative noise floor below which a sample's spread counts as zero.
REL_SPREAD_FLOOR = 1e-12

#: Cap on the trials the constant-sample rule may demand.
MAX_CONSTANT_RULE_TRIALS = 30


def sample_size(n_requests: int, sample_fraction: float) -> int:
    """Rows per trial: ``sample_fraction`` of the training requests,
    rounded, at least two, at most all of them."""
    return min(n_requests, max(2, int(round(n_requests * sample_fraction))))


def spread_is_confident(values: Sequence[float], confidence: float) -> bool:
    """The ``confident`` predicate of the paper's generator (Fig. 7).

    With ``z`` the z-scores of the trial values and ``q`` the normal
    quantile of ``confidence``, the trials are confident when ``min(z) <
    -q`` and ``max(z) > q``, or when ``max(z) - min(z) > 2 q``.  Fewer than
    two trials are never confident.  A sample whose spread is zero, or
    rounding dust under a relative noise floor, is confident once it has
    ``ceil(1 / (1 - confidence))`` trials, capped at 30: a metric that does
    not vary across that many subsamples has been observed directly.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return False
    std = arr.std()
    if std == 0.0 or std <= REL_SPREAD_FLOOR * float(np.abs(arr).max()):
        needed = int(np.ceil(1.0 / max(1.0 - confidence, 1e-12)))
        return arr.size >= min(needed, MAX_CONSTANT_RULE_TRIALS)
    z = (arr - arr.mean()) / std
    quantile = float(ndtri(confidence))
    low, high = z.min(), z.max()
    return bool(low < -quantile and high > quantile) or bool(
        high - low > 2.0 * quantile
    )


def is_satisfied(test: ConfidenceTest, values: Sequence[float]) -> bool:
    """Whether one metric's trials so far stop ``test``'s bootstrap:
    never before ``min_trials``, always from ``max_trials`` on, else when
    the spread is confident."""
    arr = np.asarray(values, dtype=float)
    if arr.size < test.min_trials:
        return False
    if arr.size >= test.max_trials:
        return True
    return spread_is_confident(arr, test.confidence)


def all_satisfied(
    test: ConfidenceTest, metric_columns: Sequence[Sequence[float]]
) -> bool:
    """Whether every metric column stops the bootstrap (no column: no)."""
    columns = list(metric_columns)
    return bool(columns) and all(is_satisfied(test, column) for column in columns)


def score_trial(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    indices: np.ndarray,
    *,
    pricing: PricingModel,
    baseline_version: str,
    degradation_mode: str = "relative",
) -> PolicyMetrics:
    """One trial's metrics: the configuration against the most accurate
    version on the trial's rows."""
    return evaluate_policy(
        measurements,
        configuration.policy,
        indices=indices,
        pricing=pricing,
        baseline_policy=SingleVersionPolicy(baseline_version),
        degradation_mode=degradation_mode,
    )


def reference_results(
    measurements: MeasurementSet,
    configurations: Sequence[EnsembleConfiguration],
    *,
    confidence: float = 0.999,
    sample_fraction: float = 0.1,
    seed: int | np.random.Generator = 0,
    degradation_mode: str = "relative",
    min_trials: int = 10,
    max_trials: int = 120,
) -> List[WorstCaseEstimate]:
    """``RoutingRuleGenerator(...).results`` by the per-trial loop.

    Takes the generator's own keyword arguments (same defaults), so a
    test builds both sides from one ``kwargs`` dict; ``seed`` may also be
    a generator, which is then advanced in place.
    """
    test = ConfidenceTest(
        confidence=confidence, min_trials=min_trials, max_trials=max_trials
    )
    rng = np.random.default_rng(seed)
    pricing = build_pricing(measurements)
    baseline_version = measurements.most_accurate_version()
    n = measurements.n_requests
    size = sample_size(n, sample_fraction)
    results = []
    for configuration in configurations:
        degradation, response, cost = [], [], []
        while not all_satisfied(test, (degradation, response, cost)):
            metrics = score_trial(
                measurements,
                configuration,
                rng.choice(n, size=size, replace=False),
                pricing=pricing,
                baseline_version=baseline_version,
                degradation_mode=degradation_mode,
            )
            degradation.append(metrics.error_degradation)
            response.append(metrics.mean_response_time_s)
            cost.append(metrics.mean_invocation_cost)
        results.append(
            WorstCaseEstimate(
                config_id=configuration.config_id,
                error_degradation=max(degradation),
                mean_response_time_s=max(response),
                mean_invocation_cost=max(cost),
                n_trials=len(degradation),
            )
        )
    return results
