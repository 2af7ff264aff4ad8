"""Bootstrapping configurations to worst-case estimates (paper Fig. 7).

The routing-rule generator needs, for every candidate configuration, a
*confident worst-case* estimate of its error degradation, response time and
invocation cost.  It gets one by repeatedly evaluating the configuration on
random subsamples of the training requests until the spread of the observed
trial values satisfies the confidence test, then recording the worst value
seen for each metric.

:func:`bootstrap_configurations` runs a whole design space, in order, over
**one trial stream**: one ``rng.choice`` per trial, configuration after
configuration, every trial scored against an
:class:`~repro.core.outcome_matrix.OutcomeMatrix`, which also supplies the
measurements, pricing, baseline and degradation mode.  A configuration's
outcome columns are expanded when its bootstrap starts and dropped when its
estimate is done, so at most one configuration's columns are alive at a
time.  Trials are taken from the stream in blocks, each block evaluated as
one ``(block, sample_size)`` gather per outcome column, and the
sequential confidence test is fed in blocks via
:meth:`~repro.stats.confidence.ConfidenceTest.first_satisfied`.  The
trials of a configuration's last block past its stopping point go back to
the stream, where the next configuration takes them first: they are the
draws a per-trial loop would have made for it.

The stream keeps one batch and how many of its trials were used.  The
trials of the last batch that no configuration needed are drawn and
dropped, so the rng ends up to one block past where one draw per trial
would leave it; the generator owns its rng and reads nothing from it
afterwards.  ``tests/oracle/rulegen_reference.py`` is the per-trial loop
the estimates are held equal to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import checks
from repro.contract import RULEGEN_SAMPLE_FRACTION
from repro.core.configuration import EnsembleConfiguration
from repro.core.outcome_matrix import OutcomeMatrix
from repro.stats.confidence import ConfidenceTest

__all__ = ["WorstCaseEstimate", "bootstrap_configurations"]

#: Trials evaluated per vectorized gather (the first takes at least the
#: test's ``min_trials``).  Results are identical for any value because the
#: stopping rule is checked prefix by prefix; the value trades throughput
#: against memory, since a block holds its index draws and one outcome
#: row's ``(TRIAL_BLOCK, sample_size)`` float gather.
TRIAL_BLOCK = 64


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


def bootstrap_configurations(
    matrix: OutcomeMatrix,
    configurations: Sequence[EnsembleConfiguration],
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_fraction: float = RULEGEN_SAMPLE_FRACTION,
) -> List[WorstCaseEstimate]:
    """Bootstrap every configuration, in order, over one trial stream.

    Each trial scores a configuration on a random ``sample_fraction``-sized
    subsample of the matrix's measurements (without replacement, mirroring
    the paper's ``choice(train, k=len/10)``); a configuration's trials stop
    once every metric column satisfies the confidence test (or its
    ``max_trials`` safety bound is reached).  Trials are drawn
    :data:`TRIAL_BLOCK` at a time, so ``rng`` may end up to one block past
    the last trial used.

    Args:
        matrix: The design space's outcome matrix; it must hold every
            configuration.
        configurations: The configurations to bootstrap, in order.
        confidence_test: Spread test bound to the requested confidence level.
        rng: Seeded generator driving the subsampling.
        sample_fraction: Fraction of the training requests per trial.

    Returns:
        One worst-case estimate per configuration, in order.
    """
    checks.positive("sample_fraction", sample_fraction)
    checks.probability("sample_fraction", sample_fraction)
    n = matrix.measurements.n_requests
    sample_size = max(2, int(round(n * sample_fraction)))
    stream = _TrialStream(rng, n, sample_size)
    return [
        _bootstrap_blocked(
            matrix, configuration, confidence_test=confidence_test, stream=stream
        )
        for configuration in configurations
    ]


class _TrialStream:
    """The trial subsamples of one rng, shared by configurations in turn.

    Trials are drawn in batches, one ``rng.choice`` per trial, and handed
    out in order.  A taker may give back the unused tail of its last take;
    the next taker gets those trials first.  Only the current batch is
    kept, with how many of its trials were used, so a take never spans two
    batches.
    """

    __slots__ = ("_draw", "_n", "_size", "_rows", "_used")

    def __init__(self, rng: np.random.Generator, n: int, sample_size: int) -> None:
        if n <= 0:
            raise ValueError(f"population size must be positive, got {n}")
        self._draw = rng.choice
        self._n = n
        self._size = int(min(max(sample_size, 1), n))
        self._rows: Optional[np.ndarray] = None
        self._used = 0

    def take(self, k: int) -> np.ndarray:
        """The next trials' indices, one row per trial: the given-back ones
        while any are left (at most ``k``), else ``k`` freshly drawn."""
        if self._rows is None or self._used == len(self._rows):
            self._rows = np.empty((k, self._size), dtype=np.intp)
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


def _bootstrap_blocked(
    matrix: OutcomeMatrix,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    stream: _TrialStream,
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
        # size changes no result, since trials past the stop go to the
        # next configuration.  max_trials caps the total.
        block = max(TRIAL_BLOCK, confidence_test.min_trials - drawn)
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
