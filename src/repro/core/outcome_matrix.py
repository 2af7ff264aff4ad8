"""Outcome columns on demand: the rule generator's vectorized fast path.

The bootstrap loop of the routing-rule generator (paper Fig. 7) evaluates
the *same* configuration on hundreds of random subsamples.  The legacy path
pays Python-object overhead on every trial: it rebuilds policy outcome
objects, re-evaluates the OSFA baseline from scratch and materialises
per-row request-id tuples, only to reduce everything to three scalars.

:class:`OutcomeMatrix` removes that overhead by observing that for the
policies the design space enumerates (``single`` / ``seq`` / ``conc`` /
``et``), every per-request outcome is a *fixed function of the measurement
table* — independent of which subsample a trial draws.  So a
configuration's trials all read dense ``(n_requests,)`` outcome columns:

* the error of the result the consumer receives,
* the end-to-end response time, and
* the node-seconds each version consumes (including wasted concurrent
  work).

The matrix keeps only what configurations share: each version's error,
latency and confidence column (fetched once from the measurement table),
the baseline error column and the prices.  A configuration's outcome
columns are expanded from them by :meth:`OutcomeMatrix.columns_for` when
its bootstrap starts, and dropped when its estimate is done, so memory
follows versions × rows, not configurations × rows.  Every threshold of
a version pair derives its columns from comparisons on the pair's shared
confidence column instead of re-evaluating each
:class:`~repro.core.configuration.EnsembleConfiguration` independently.

A bootstrap trial then becomes a ``(block, sample_size)`` integer gather
plus a ``mean(axis=1)`` — see :meth:`OutcomeMatrix.evaluate` — and the
arithmetic is ordered exactly like the legacy scalar path
(:func:`repro.core.simulator.simulate`) so both produce bit-identical
metrics; the legacy path is kept as the correctness oracle
(``tests/core/test_outcome_matrix.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.configuration import EnsembleConfiguration, check_unique_ids
from repro.core.metrics import build_pricing
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    EnsemblePolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.service.measurement import MeasurementSet
from repro.service.pricing import PricingModel

__all__ = ["ConfigurationColumns", "OutcomeMatrix", "TrialMetricBlock"]

#: Policy types the matrix can expand into dense outcome columns.  Exact
#: types, not ``isinstance``: a subclass may override ``evaluate`` (the
#: learned-escalation baseline does) and must fall back to the legacy path.
_SUPPORTED_POLICY_TYPES = (
    SingleVersionPolicy,
    SequentialPolicy,
    ConcurrentPolicy,
    EarlyTerminationPolicy,
)


@dataclass(frozen=True)
class ConfigurationColumns:
    """Dense per-request outcome columns of one configuration.

    Built by :meth:`OutcomeMatrix.columns_for`, owned by its caller.  All
    columns live in one ``stacked`` matrix — rows: consumer error,
    baseline error, response time, then the node-seconds rows named by
    ``node_rows`` — so a trial block needs a single contiguous gather.  For
    a single-version policy the response-time row doubles as its
    node-seconds row (they are the same column).

    Attributes:
        config_id: The configuration the columns describe.
        stacked: ``(n_rows, n_requests)`` outcome-column matrix.
        node_rows: ``(version, row-index)`` pairs in the policy's version
            order (the order the legacy cost breakdown sums in).
    """

    config_id: str
    stacked: np.ndarray
    node_rows: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class TrialMetricBlock:
    """Metrics of a block of bootstrap trials, one entry per trial.

    The three arrays mirror the fields of
    :class:`~repro.core.simulator.TierSimulation` that the bootstrap
    consumes.
    """

    error_degradation: np.ndarray
    mean_response_time_s: np.ndarray
    mean_invocation_cost: np.ndarray


class OutcomeMatrix:
    """Outcome columns of a design space over one measurement set.

    Build with :meth:`build`; expand one configuration's columns with
    :meth:`columns_for` and evaluate bootstrap trials against them with
    :meth:`evaluate` (or both at once with :meth:`trial_metrics`).  The
    matrix owns the pieces every configuration's evaluation shares — the
    versions' measurement columns, one pricing model, one baseline error
    column (the cached OSFA evaluation), one degradation mode — so nothing
    is re-derived per trial, and no configuration's columns outlive its
    caller.
    """

    def __init__(
        self,
        measurements: MeasurementSet,
        pricing: PricingModel,
        baseline_version: str,
        degradation_mode: str,
        policies: Dict[str, EnsemblePolicy],
    ) -> None:
        if degradation_mode not in ("relative", "absolute"):
            raise ValueError(
                f"mode must be 'relative' or 'absolute', got {degradation_mode!r}"
            )
        self.measurements = measurements
        self.pricing = pricing
        self.baseline_version = baseline_version
        self.degradation_mode = degradation_mode
        self._policies = policies
        used = {baseline_version}
        for policy in policies.values():
            used.update(policy.versions)
        self._version_columns: Dict[str, Dict[str, np.ndarray]] = {}
        for j in sorted(map(measurements.version_index, used)):
            self._version_columns[measurements.versions[j]] = {
                "error": np.ascontiguousarray(measurements.error[:, j]),
                "latency": np.ascontiguousarray(measurements.latency_s[:, j]),
                "confidence": np.ascontiguousarray(measurements.confidence[:, j]),
            }
        self._baseline_error = self._version_columns[baseline_version]["error"]
        self._price = {
            version: pricing.instance_for(version).price_per_second
            for version in measurements.versions
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def supports(policy: EnsemblePolicy) -> bool:
        """Whether the matrix can expand a policy into outcome columns."""
        return type(policy) in _SUPPORTED_POLICY_TYPES

    @classmethod
    def build(
        cls,
        measurements: MeasurementSet,
        configurations: Iterable[EnsembleConfiguration],
        *,
        pricing: Optional[PricingModel] = None,
        baseline_version: Optional[str] = None,
        degradation_mode: str = "relative",
    ) -> "OutcomeMatrix":
        """A matrix for every supported configuration of a design space.

        Only the versions' measurement columns are fetched here; each
        configuration's outcome columns are expanded when asked for.
        Unsupported policies (custom ``evaluate`` overrides) are skipped;
        callers detect them via ``config_id in matrix`` and keep the legacy
        scalar path for those.

        Args:
            measurements: The training measurement table.
            configurations: Candidate configurations, with distinct ids.
            pricing: Shared pricing model; derived from the measurements
                when omitted.
            baseline_version: Degradation reference; defaults to the most
                accurate version.
            degradation_mode: ``"relative"`` or ``"absolute"``.

        Raises:
            ValueError: If two configurations share an id.
        """
        configurations = check_unique_ids(configurations)
        if pricing is None:
            pricing = build_pricing(measurements)
        if baseline_version is None:
            baseline_version = measurements.most_accurate_version()
        policies = {
            configuration.config_id: configuration.policy
            for configuration in configurations
            if cls.supports(configuration.policy)
        }
        return cls(
            measurements, pricing, baseline_version, degradation_mode, policies
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, config_id: str) -> bool:
        return config_id in self._policies

    def columns_for(self, config_id: str) -> ConfigurationColumns:
        """Expand one configuration's outcome columns.

        Each call builds fresh columns from the shared version columns;
        the matrix keeps no reference to them.

        Raises:
            KeyError: If the matrix does not hold the configuration.
        """
        try:
            policy = self._policies[config_id]
        except KeyError:
            raise KeyError(
                f"no outcome columns for configuration {config_id!r}"
            ) from None
        by_version = self._version_columns
        n = self.measurements.n_requests
        if isinstance(policy, SingleVersionPolicy):
            version = policy.version
            # 3 rows: the latency row is both the response time and the
            # version's node seconds.
            stacked = np.empty((3, n))
            stacked[0] = by_version[version]["error"]
            stacked[1] = self._baseline_error
            stacked[2] = by_version[version]["latency"]
            return ConfigurationColumns(
                config_id=config_id, stacked=stacked, node_rows=((version, 2),)
            )

        fast = by_version[policy.fast_version]
        accurate = by_version[policy.accurate_version]
        fast_lat, acc_lat = fast["latency"], accurate["latency"]
        escalate = fast["confidence"] < policy.confidence_threshold
        stacked = np.empty((5, n))
        # np.copyto(..., where=) is a pure selection, so the rows are
        # elementwise identical to the policies' np.where expressions.
        np.copyto(stacked[0], fast["error"])
        np.copyto(stacked[0], accurate["error"], where=escalate)
        stacked[1] = self._baseline_error
        stacked[3] = fast_lat
        if isinstance(policy, SequentialPolicy):
            np.add(fast_lat, acc_lat, out=stacked[2])
            np.copyto(stacked[2], fast_lat, where=~escalate)
            stacked[4] = 0.0
            np.copyto(stacked[4], acc_lat, where=escalate)
        else:  # conc / et share the concurrent response time
            np.maximum(fast_lat, acc_lat, out=stacked[2])
            np.copyto(stacked[2], fast_lat, where=~escalate)
            if isinstance(policy, EarlyTerminationPolicy):
                np.minimum(acc_lat, fast_lat, out=stacked[4])
                np.copyto(stacked[4], acc_lat, where=escalate)
            else:
                stacked[4] = acc_lat
        return ConfigurationColumns(
            config_id=config_id,
            stacked=stacked,
            node_rows=((policy.fast_version, 3), (policy.accurate_version, 4)),
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def trial_metrics(
        self, config_id: str, indices: np.ndarray
    ) -> TrialMetricBlock:
        """Evaluate a block of one configuration's bootstrap trials.

        Expands the configuration's columns for this call alone; a caller
        evaluating many blocks expands once with :meth:`columns_for` and
        calls :meth:`evaluate`.
        """
        return self.evaluate(self.columns_for(config_id), indices)

    def evaluate(
        self, cols: ConfigurationColumns, indices: np.ndarray
    ) -> TrialMetricBlock:
        """Evaluate a block of bootstrap trials in one vectorized pass.

        Args:
            cols: The configuration's columns, from :meth:`columns_for`.
            indices: Integer row-index array of shape ``(block,
                sample_size)`` — one trial per row — or ``(sample_size,)``
                for a single trial.

        Returns:
            Per-trial metric arrays of shape ``(block,)``.  Every value is
            arithmetically ordered like the legacy scalar path, so it is
            bit-identical to ``simulate(measurements, cfg, indices=row)``.
        """
        idx = np.asarray(indices)
        if idx.ndim == 1:
            idx = idx[np.newaxis, :]
        if idx.ndim != 2 or idx.shape[1] == 0:
            raise ValueError("indices must be a (block, sample_size) array")
        block, sample_size = idx.shape
        n_rows = cols.stacked.shape[0]

        # One gather for all columns.  ``take`` (unlike ``stacked[:, idx]``,
        # which leaves the gathered axes strided) yields a C-contiguous
        # result, so the per-row sums reduce along the contiguous axis in
        # the same pairwise order as the scalar path's 1-D means and every
        # metric is bit-identical to simulate().
        gathered = cols.stacked.take(idx.reshape(-1), axis=1)
        sums = gathered.reshape(n_rows, block, sample_size).sum(axis=2)
        candidate_error = sums[0] / sample_size
        baseline_error = sums[1] / sample_size
        degradation = _vector_degradation(
            candidate_error, baseline_error, mode=self.degradation_mode
        )
        response = sums[2] / sample_size

        # Cost, ordered exactly like EnsembleOutcomes.cost(): per-version
        # node-second sums, priced, then accumulated in version order
        # (starting the accumulation at the first version is exact:
        # ``0.0 + x == x``).
        (first_version, first_row), *rest = cols.node_rows
        iaas = sums[first_row] * self._price[first_version]
        for version, row in rest:
            iaas += sums[row] * self._price[version]
        invocation = (
            sample_size * self.pricing.per_request_fee
            + self.pricing.markup * iaas
        )
        cost = invocation / sample_size
        return TrialMetricBlock(
            error_degradation=degradation,
            mean_response_time_s=response,
            mean_invocation_cost=cost,
        )


def _vector_degradation(
    candidate_error: np.ndarray, baseline_error: np.ndarray, *, mode: str
) -> np.ndarray:
    """Vectorized :func:`repro.core.metrics.error_degradation`.

    Elementwise-identical to the scalar function: zero when the candidate
    beats the baseline, the absolute difference in ``"absolute"`` mode or
    against a perfect (zero-error) baseline, the relative difference
    otherwise.
    """
    diff = candidate_error - baseline_error
    if mode == "absolute":
        raw = diff
    else:
        positive = baseline_error > 0.0
        raw = np.where(
            positive, diff / np.where(positive, baseline_error, 1.0), diff
        )
    return np.where(diff <= 0.0, 0.0, raw)
