"""Bootstrapping configurations to worst-case estimates (paper Fig. 7).

The routing-rule generator needs, for every candidate configuration, a
*confident worst-case* estimate of its error degradation, response time and
invocation cost.  It gets one by repeatedly simulating the configuration on
random subsamples of the training requests until the spread of the observed
trial values satisfies the confidence test, then recording the worst value
seen for each metric.

:func:`bootstrap_configurations` runs a whole design space, in order, over
**one trial stream**: the subsamples the scalar loop would draw, one
``rng.choice`` per trial, configuration after configuration.  One
contract, two loops, picked per configuration:

* the **blocked vectorized loop**, whenever an
  :class:`~repro.core.outcome_matrix.OutcomeMatrix` that holds the
  configuration is supplied (the rule generator always supplies one).
  It expands the configuration's outcome columns when its bootstrap
  starts and drops them when its estimate is done, so at most one
  configuration's columns are alive at a time.  It takes trials from the
  stream in blocks, evaluates each block as a ``(block, sample_size)``
  gather against those columns, and feeds the sequential confidence
  test in blocks via
  :meth:`~repro.stats.confidence.ConfidenceTest.first_satisfied`.  The
  trials of its last block past the stopping point go back to the
  stream, where the next configuration takes them first — they are the
  draws the scalar loop would have made for it.
* the **scalar loop** — one :func:`~repro.core.simulator.simulate` call
  per trial — for policies the matrix cannot expand (a custom
  ``evaluate``, :mod:`repro.core.learned_router`) or when none is given;
  ``tests/oracle/rulegen_reference.py`` holds the first loop equal to it.

A scalar configuration takes given-back trials first and then draws its
own with :func:`~repro.stats.resampling.subsample_indices`, as the
scalar reference does.  The stream keeps one batch: its trials and the
rng state it was drawn from.  When the design space is done it hands
the rng back: it rewinds to that batch if some of its trials are unused
and replays the draws used from it, so the generator ends where the
scalar loop ends — one replay per design space, not one per
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro import checks
from repro.contract import RULEGEN_SAMPLE_FRACTION
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SingleVersionPolicy
from repro.core.simulator import TierSimulation, simulate
from repro.service.measurement import MeasurementSet
from repro.service.pricing import PricingModel
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.outcome_matrix import OutcomeMatrix

__all__ = [
    "WorstCaseEstimate",
    "bootstrap_configuration",
    "bootstrap_configurations",
]

#: Trials evaluated per vectorized gather (the first takes at least the
#: test's ``min_trials``).  Purely a throughput knob: results are identical
#: for any value because the stopping rule is checked prefix by prefix.
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
    sample_fraction: float = RULEGEN_SAMPLE_FRACTION,
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
    the test's ``max_trials`` safety bound is reached).  ``rng`` is left
    where one ``rng.choice`` per trial leaves it.

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
        outcome_matrix: Outcome columns enabling the blocked vectorized
            fast path; the matrix must hold the configuration (fall back
            to the scalar loop otherwise).
        trial_block: Trials per vectorized gather on the fast path.

    Returns:
        The worst-case estimate across all trials.
    """
    return bootstrap_configurations(
        measurements,
        [configuration],
        confidence_test=confidence_test,
        rng=rng,
        sample_fraction=sample_fraction,
        pricing=pricing,
        baseline_version=baseline_version,
        degradation_mode=degradation_mode,
        outcome_matrix=outcome_matrix,
        trial_block=trial_block,
    )[0]


def bootstrap_configurations(
    measurements: MeasurementSet,
    configurations: Sequence[EnsembleConfiguration],
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_fraction: float = RULEGEN_SAMPLE_FRACTION,
    pricing: Optional[PricingModel] = None,
    baseline_version: Optional[str] = None,
    degradation_mode: str = "relative",
    outcome_matrix: Optional["OutcomeMatrix"] = None,
    trial_block: int = DEFAULT_TRIAL_BLOCK,
) -> List[WorstCaseEstimate]:
    """Bootstrap every configuration, in order, over one trial stream.

    Equal to :func:`bootstrap_configuration` called per configuration on
    the same ``rng`` (the estimates, and where ``rng`` is left), with the
    same arguments.
    """
    checks.positive("sample_fraction", sample_fraction)
    checks.probability("sample_fraction", sample_fraction)
    checks.integer("trial_block", trial_block, minimum=1)
    if baseline_version is None:
        baseline_version = measurements.most_accurate_version()
    blocked = [
        outcome_matrix is not None and configuration.config_id in outcome_matrix
        for configuration in configurations
    ]
    if any(blocked):
        _check_matrix(
            outcome_matrix, measurements, pricing, baseline_version, degradation_mode
        )

    sample_size = max(2, int(round(measurements.n_requests * sample_fraction)))
    stream = _TrialStream(rng, measurements.n_requests, sample_size)
    results = [
        _bootstrap_blocked(
            outcome_matrix,
            configuration,
            confidence_test=confidence_test,
            stream=stream,
            trial_block=trial_block,
        )
        if fast
        else _bootstrap_scalar(
            measurements,
            configuration,
            confidence_test=confidence_test,
            stream=stream,
            rng=rng,
            sample_size=sample_size,
            pricing=pricing,
            baseline_version=baseline_version,
            degradation_mode=degradation_mode,
        )
        for configuration, fast in zip(configurations, blocked)
    ]
    stream.release()
    return results


def _check_matrix(
    matrix: "OutcomeMatrix",
    measurements: MeasurementSet,
    pricing: Optional[PricingModel],
    baseline_version: str,
    degradation_mode: str,
) -> None:
    """Refuse a matrix that would price or score trials differently from
    the scalar loop."""
    if matrix.measurements is not measurements:
        raise ValueError("outcome_matrix was built from a different measurement set")
    if matrix.degradation_mode != degradation_mode:
        raise ValueError(
            f"outcome_matrix was built for degradation_mode="
            f"{matrix.degradation_mode!r}, not {degradation_mode!r}"
        )
    if matrix.baseline_version != baseline_version:
        raise ValueError(
            f"outcome_matrix was built against baseline "
            f"{matrix.baseline_version!r}, not {baseline_version!r}"
        )
    matrix_pricing = matrix.pricing
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


class _TrialStream:
    """The trial subsamples of one rng, shared by configurations in turn.

    Trials are drawn in batches, one ``rng.choice`` per trial, and handed
    out in order.  A taker may give back the unused tail of its last take;
    the next taker gets those trials first.  Only the current batch is
    kept, with the rng state it was drawn from and how many of its trials
    were used, so a take never spans two batches.
    """

    __slots__ = ("_rng", "_draw", "_n", "_size", "_state", "_rows", "_used")

    def __init__(self, rng: np.random.Generator, n: int, sample_size: int) -> None:
        if n <= 0:
            raise ValueError(f"population size must be positive, got {n}")
        self._rng = rng
        # After this clip each row is exactly subsample_indices' draw.
        self._draw = rng.choice
        self._n = n
        self._size = int(min(max(sample_size, 1), n))
        self._state: Optional[dict] = None
        self._rows: Optional[np.ndarray] = None
        self._used = 0

    @property
    def carries(self) -> bool:
        """Whether given-back trials are waiting to be taken."""
        return self._rows is not None and self._used < len(self._rows)

    def take(self, k: int) -> np.ndarray:
        """The next trials' indices, one row per trial: the given-back ones
        while any are left (at most ``k``), else ``k`` freshly drawn."""
        if not self.carries:
            # The state property builds a fresh dict on access: no copy.
            self._state = self._rng.bit_generator.state
            self._rows = np.empty((k, self._size), dtype=np.int64)
            self._used = 0
            draw, n, size = self._draw, self._n, self._size
            for row in range(k):
                self._rows[row] = draw(n, size=size, replace=False)
        rows = self._rows[self._used : self._used + k]
        self._used += len(rows)
        return rows

    def give_back(self, k: int) -> None:
        """Return the last ``k`` trials of the last take, unused."""
        self._used -= k

    def release(self) -> None:
        """Hand the rng back positioned after the last trial used: rewind
        to the batch of the first unused one and replay what was used of
        it."""
        if self.carries:
            self._rng.bit_generator.state = self._state
            for _ in range(self._used):
                self._draw(self._n, size=self._size, replace=False)
        self._state, self._rows, self._used = None, None, 0


def _bootstrap_scalar(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    stream: _TrialStream,
    rng: np.random.Generator,
    sample_size: int,
    pricing: Optional[PricingModel],
    baseline_version: str,
    degradation_mode: str,
) -> WorstCaseEstimate:
    """The per-trial loop, for configurations the matrix cannot expand.

    It takes the trials a blocked configuration gave back first, then
    draws its own, one :func:`subsample_indices` per trial.
    """
    baseline_policy = SingleVersionPolicy(baseline_version)
    trials: List[TierSimulation] = []

    while True:
        if stream.carries:
            indices = stream.take(1)[0]
        else:
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
    stream: _TrialStream,
    trial_block: int,
) -> WorstCaseEstimate:
    """The blocked vectorized loop over the configuration's outcome
    columns, expanded here and dropped on return."""
    columns = matrix.columns_for(configuration.config_id)
    max_trials = confidence_test.max_trials
    degradation = np.empty(max_trials)
    response = np.empty(max_trials)
    cost = np.empty(max_trials)
    drawn = 0
    stop: Optional[int] = None

    while stop is None:
        # A block asks for at least the trials the test cannot pass
        # without (it rejects every prefix shorter than min_trials), but
        # given-back trials come alone, so it may get fewer.  The block
        # size is a throughput knob, since trials past the stop go to the
        # next configuration.  max_trials caps the total.
        block = max(trial_block, confidence_test.min_trials - drawn)
        indices = stream.take(min(block, max_trials - drawn))
        block = len(indices)
        metrics = matrix.evaluate(columns, indices)
        degradation[drawn : drawn + block] = metrics.error_degradation
        response[drawn : drawn + block] = metrics.mean_response_time_s
        cost[drawn : drawn + block] = metrics.mean_invocation_cost
        checked = drawn
        drawn += block
        if drawn < confidence_test.min_trials:
            continue  # every prefix so far is rejected
        stop = confidence_test.first_satisfied(
            (degradation[:drawn], response[:drawn], cost[:drawn]),
            start=checked + 1,
        )
        if stop is None and drawn >= max_trials:
            stop = max_trials  # unconditional safety valve

    # The stop lies in the last block (the scan starts at its first
    # trial): its trials past the stop are the next configuration's.
    stream.give_back(drawn - stop)
    return WorstCaseEstimate(
        config_id=configuration.config_id,
        error_degradation=float(degradation[:stop].max()),
        mean_response_time_s=float(response[:stop].max()),
        mean_invocation_cost=float(cost[:stop].max()),
        n_trials=stop,
    )
