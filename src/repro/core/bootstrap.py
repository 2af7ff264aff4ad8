"""Bootstrapping one configuration to a worst-case estimate (paper Fig. 7).

The routing-rule generator needs, for every candidate configuration, a
*confident worst-case* estimate of its error degradation, response time and
invocation cost.  It gets one by repeatedly simulating the configuration on
random subsamples of the training requests until the spread of the observed
trial values satisfies the confidence test, then recording the worst value
seen for each metric.

One contract, two loops, picked per configuration:

* the **blocked vectorized loop**, whenever an
  :class:`~repro.core.outcome_matrix.OutcomeMatrix` that expanded the
  configuration is supplied (the rule generator always supplies one).
  Trial index sets are drawn in the exact rng order of the scalar loop,
  but evaluated as ``(block, sample_size)`` gathers against the matrix's
  precomputed outcome columns, and the sequential confidence test is fed
  in blocks via :meth:`~repro.stats.confidence.ConfidenceTest.first_satisfied`.
  Because the blocked loop may draw a few trials past the stopping point,
  it rewinds the generator to the start of the last block and replays the
  draws consumed from it, so the rng state after each configuration — and
  therefore every downstream configuration's trials — matches the scalar
  loop bit for bit.
* the **scalar loop** — one :func:`~repro.core.simulator.simulate` call
  per trial — for policies the matrix cannot expand (a custom
  ``evaluate``, :mod:`repro.core.learned_router`) or when none is given;
  ``tests/oracle/rulegen_reference.py`` holds the first loop equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SingleVersionPolicy
from repro.core.simulator import TierSimulation, simulate
from repro.service.measurement import MeasurementSet
from repro.service.pricing import PricingModel
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.outcome_matrix import OutcomeMatrix

__all__ = ["WorstCaseEstimate", "bootstrap_configuration"]

#: Trials evaluated per vectorized gather once the minimum-trial block has
#: been consumed.  Purely a throughput knob: results are identical for any
#: value because the stopping rule is replayed prefix by prefix.
DEFAULT_TRIAL_BLOCK = 64


@dataclass(frozen=True)
class WorstCaseEstimate:
    """Confident worst-case behaviour of one configuration.

    Attributes:
        config_id: Identifier of the bootstrapped configuration.
        error_degradation: Worst observed error degradation across trials.
        mean_response_time_s: Worst observed mean response time.
        mean_invocation_cost: Worst observed mean invocation cost.
        n_trials: Number of bootstrap trials run before the confidence test
            was satisfied.
    """

    config_id: str
    error_degradation: float
    mean_response_time_s: float
    mean_invocation_cost: float
    n_trials: int

    def objective_value(self, objective: str) -> float:
        """Worst-case value of the metric a tier objective minimises."""
        if objective == "response-time":
            return self.mean_response_time_s
        if objective == "cost":
            return self.mean_invocation_cost
        raise ValueError(f"unknown objective {objective!r}")


def bootstrap_configuration(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_fraction: float = 0.1,
    pricing: Optional[PricingModel] = None,
    baseline_version: Optional[str] = None,
    degradation_mode: str = "relative",
    outcome_matrix: Optional["OutcomeMatrix"] = None,
    trial_block: int = DEFAULT_TRIAL_BLOCK,
) -> WorstCaseEstimate:
    """Bootstrap one configuration until its metrics are confidently spread.

    Each trial simulates the configuration on a random
    ``sample_fraction``-sized subsample of the measurements (without
    replacement, mirroring the paper's ``choice(train, k=len/10)``), and the
    loop stops once every metric column satisfies the confidence test (or
    the test's ``max_trials`` safety bound is reached).

    Args:
        measurements: The training measurements.
        configuration: The candidate configuration.
        confidence_test: Spread test bound to the requested confidence level.
        rng: Seeded generator driving the subsampling.
        sample_fraction: Fraction of the training requests per trial.
        pricing: Optional pre-built pricing model.
        baseline_version: Degradation reference version; defaults to the
            most accurate version of the full training set.
        degradation_mode: ``"relative"`` or ``"absolute"``.
        outcome_matrix: Precomputed outcome columns enabling the blocked
            vectorized fast path; the configuration must have been
            expanded into it (fall back to the scalar loop otherwise).
        trial_block: Trials per vectorized gather on the fast path.

    Returns:
        The worst-case estimate across all trials.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    if baseline_version is None:
        baseline_version = measurements.most_accurate_version()

    sample_size = max(2, int(round(measurements.n_requests * sample_fraction)))

    if outcome_matrix is not None and configuration.config_id in outcome_matrix:
        if outcome_matrix.measurements is not measurements:
            raise ValueError(
                "outcome_matrix was built from a different measurement set"
            )
        if outcome_matrix.degradation_mode != degradation_mode:
            raise ValueError(
                f"outcome_matrix was built for degradation_mode="
                f"{outcome_matrix.degradation_mode!r}, not {degradation_mode!r}"
            )
        if outcome_matrix.baseline_version != baseline_version:
            raise ValueError(
                f"outcome_matrix was built against baseline "
                f"{outcome_matrix.baseline_version!r}, not {baseline_version!r}"
            )
        matrix_pricing = outcome_matrix.pricing
        if pricing is not None and not (
            pricing is matrix_pricing
            or (
                pricing.per_request_fee == matrix_pricing.per_request_fee
                and pricing.markup == matrix_pricing.markup
                and pricing.version_instances == matrix_pricing.version_instances
            )
        ):
            raise ValueError(
                "outcome_matrix was built with a different pricing model; "
                "pass an equivalent pricing (or omit it) so both engines "
                "price trials identically"
            )
        return _bootstrap_blocked(
            outcome_matrix,
            configuration,
            confidence_test=confidence_test,
            rng=rng,
            sample_size=sample_size,
            trial_block=trial_block,
        )
    return _bootstrap_scalar(
        measurements,
        configuration,
        confidence_test=confidence_test,
        rng=rng,
        sample_size=sample_size,
        pricing=pricing,
        baseline_version=baseline_version,
        degradation_mode=degradation_mode,
    )


def _bootstrap_scalar(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_size: int,
    pricing: Optional[PricingModel],
    baseline_version: str,
    degradation_mode: str,
) -> WorstCaseEstimate:
    """The per-trial loop, for configurations the matrix cannot expand."""
    baseline_policy = SingleVersionPolicy(baseline_version)
    trials: List[TierSimulation] = []

    while True:
        indices = subsample_indices(measurements.n_requests, sample_size, rng=rng)
        trials.append(
            simulate(
                measurements,
                configuration,
                indices=indices,
                pricing=pricing,
                baseline_version=baseline_version,
                baseline_policy=baseline_policy,
                degradation_mode=degradation_mode,
            )
        )
        columns = (
            [t.error_degradation for t in trials],
            [t.mean_response_time_s for t in trials],
            [t.mean_invocation_cost for t in trials],
        )
        if confidence_test.all_satisfied(columns):
            break

    return WorstCaseEstimate(
        config_id=configuration.config_id,
        error_degradation=max(t.error_degradation for t in trials),
        mean_response_time_s=max(t.mean_response_time_s for t in trials),
        mean_invocation_cost=max(t.mean_invocation_cost for t in trials),
        n_trials=len(trials),
    )


def _bootstrap_blocked(
    matrix: "OutcomeMatrix",
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_size: int,
    trial_block: int,
) -> WorstCaseEstimate:
    """The blocked vectorized loop over precomputed outcome columns."""
    if trial_block < 1:
        raise ValueError("trial_block must be positive")
    n = matrix.n_requests
    sample_size = int(min(max(sample_size, 1), n))  # subsample_indices' clip
    max_trials = confidence_test.max_trials

    degradation = np.empty(max_trials)
    response = np.empty(max_trials)
    cost = np.empty(max_trials)
    index_buffer = np.empty(
        (min(max(confidence_test.min_trials, trial_block), max_trials), sample_size),
        dtype=np.int64,
    )
    # After the clip above this is exactly subsample_indices' draw, with
    # the wrapper's per-call validation hoisted out of the loop.
    draw = rng.choice
    drawn = 0
    stop: Optional[int] = None

    while stop is None:
        # The first block covers the trials the test cannot pass without
        # (it rejects every prefix shorter than min_trials), later blocks
        # are a throughput knob; max_trials caps the total either way.
        if drawn == 0:
            block = min(confidence_test.min_trials, max_trials)
        else:
            block = min(trial_block, max_trials - drawn)
        # The state property builds a fresh dict on access, so no copy needed.
        block_state = rng.bit_generator.state
        indices = index_buffer[:block]
        for row in range(block):
            indices[row] = draw(n, size=sample_size, replace=False)
        metrics = matrix.trial_metrics(configuration.config_id, indices)
        degradation[drawn : drawn + block] = metrics.error_degradation
        response[drawn : drawn + block] = metrics.mean_response_time_s
        cost[drawn : drawn + block] = metrics.mean_invocation_cost
        checked = drawn
        drawn += block
        stop = confidence_test.first_satisfied(
            (degradation[:drawn], response[:drawn], cost[:drawn]),
            start=checked + 1,
        )
        if stop is None and drawn >= max_trials:
            stop = max_trials  # unconditional safety valve

    if drawn > stop:
        # The stop lies in the last block (the scan starts at its first
        # trial): rewind to that block and replay only the draws the scalar
        # loop would have consumed, so the next configuration sees the same
        # generator state.
        rng.bit_generator.state = block_state
        for _ in range(stop - checked):
            draw(n, size=sample_size, replace=False)

    return WorstCaseEstimate(
        config_id=configuration.config_id,
        error_degradation=float(degradation[:stop].max()),
        mean_response_time_s=float(response[:stop].max()),
        mean_invocation_cost=float(cost[:stop].max()),
        n_trials=stop,
    )
