"""Outcome columns on demand: how the rule generator scores a trial.

The bootstrap loop of the routing-rule generator (paper Fig. 7) evaluates
the *same* configuration on hundreds of random subsamples.  Scoring each
trial through the policies' outcome objects would rebuild them, re-evaluate
the OSFA baseline from scratch and materialise per-row request-id tuples,
only to reduce everything to three scalars.

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

A block of bootstrap trials then becomes, per outcome row, a
``(block, sample_size)`` gather of that row plus a ``sum(axis=1)`` — see
:meth:`OutcomeMatrix.evaluate`.  The rows are gathered one at a time, so
a block holds one row's gather, not all of them.  The arithmetic is
ordered exactly like
:func:`repro.core.metrics.evaluate_policy` on the same rows, so both
produce bit-identical metrics (``tests/core/test_outcome_matrix.py``
holds them equal).  A policy the matrix cannot expand is refused when
the matrix is built.
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
#: learned-escalation baseline does), and its columns would be wrong.
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
    ``node_rows`` — each a contiguous row a trial block gathers from.  For
    a single-version policy the response-time row doubles as its
    node-seconds row (they are the same column).

    Attributes:
        config_id: The configuration the columns describe.
        stacked: ``(n_rows, n_requests)`` outcome-column matrix.
        node_rows: ``(version, row-index)`` pairs in the policy's version
            order (the order ``EnsembleOutcomes.cost`` sums in).
    """

    config_id: str
    stacked: np.ndarray
    node_rows: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class TrialMetricBlock:
    """Metrics of a block of bootstrap trials, one entry per trial.

    The three arrays mirror the fields of
    :class:`~repro.core.metrics.PolicyMetrics` that the bootstrap
    consumes.
    """

    error_degradation: np.ndarray
    mean_response_time_s: np.ndarray
    mean_invocation_cost: np.ndarray


class OutcomeMatrix:
    """Outcome columns of a design space over one measurement set.

    Build with :meth:`build`; expand one configuration's columns with
    :meth:`columns_for` and evaluate bootstrap trials against them with
    :meth:`evaluate`.  The matrix owns the pieces every configuration's evaluation shares — the
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
        """A matrix for every configuration of a design space.

        Only the versions' measurement columns are fetched here; each
        configuration's outcome columns are expanded when asked for.

        Args:
            measurements: The training measurement table.
            configurations: Candidate configurations, with distinct ids.
            pricing: Shared pricing model; derived from the measurements
                when omitted.
            baseline_version: Degradation reference; defaults to the most
                accurate version.
            degradation_mode: ``"relative"`` or ``"absolute"``.

        Raises:
            ValueError: If two configurations share an id, or a policy is
                not one of the four kinds the matrix expands (a custom
                ``evaluate``, :mod:`repro.core.learned_router`).
        """
        configurations = check_unique_ids(configurations)
        for configuration in configurations:
            policy = configuration.policy
            if type(policy) not in _SUPPORTED_POLICY_TYPES:
                raise ValueError(
                    f"configuration {configuration.config_id!r}: the outcome "
                    f"matrix cannot expand a {type(policy).__name__} policy "
                    "(only single, seq, conc and et)"
                )
        if pricing is None:
            pricing = build_pricing(measurements)
        if baseline_version is None:
            baseline_version = measurements.most_accurate_version()
        policies = {
            configuration.config_id: configuration.policy
            for configuration in configurations
        }
        return cls(
            measurements, pricing, baseline_version, degradation_mode, policies
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
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
    def evaluate(
        self, cols: ConfigurationColumns, indices: np.ndarray
    ) -> TrialMetricBlock:
        """Evaluate a block of bootstrap trials, one outcome row at a time.

        Args:
            cols: The configuration's columns, from :meth:`columns_for`.
            indices: Integer row-index array of shape ``(block,
                sample_size)`` — one trial per row — or ``(sample_size,)``
                for a single trial.

        Returns:
            Per-trial metric arrays of shape ``(block,)``.  Every value is
            arithmetically ordered like
            ``evaluate_policy(measurements, cfg.policy, indices=row)``, so
            it is bit-identical to that call's metrics.
        """
        idx = np.asarray(indices)
        if idx.ndim == 1:
            idx = idx[np.newaxis, :]
        if idx.ndim != 2 or idx.shape[1] == 0:
            raise ValueError("indices must be a (block, sample_size) array")
        sample_size = idx.shape[1]

        # One gather per outcome row, so only one ``(block, sample_size)``
        # float array is alive at a time.  ``take`` yields it C-contiguous,
        # so each trial's sum reduces along the contiguous axis in the
        # same pairwise order as evaluate_policy's 1-D means and every
        # metric is bit-identical to evaluate_policy's.
        sums = [row.take(idx).sum(axis=1) for row in cols.stacked]
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
