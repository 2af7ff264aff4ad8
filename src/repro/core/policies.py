"""Service-version ensembling policies (paper Section IV).

Tolerance Tiers serves a tier not with one model but with an *ensemble* of
service versions combined by a routing policy.  The paper evaluates simple
two-version policies built around a fast ("little") version and an accurate
("big") version, gated by the fast version's result confidence:

* :class:`SingleVersionPolicy` — the degenerate ensemble of one version;
  the conventional "one size fits all" deployment is the single most
  accurate version.
* :class:`SequentialPolicy` (``seq``) — run the fast version first; when its
  confidence falls below the threshold, re-run the request on the accurate
  version and return that result.  Saves compute, but escalated requests pay
  both latencies back to back.
* :class:`ConcurrentPolicy` (``conc``) — launch both versions at once;
  return the fast result if it is confident, otherwise wait for the accurate
  one.  Escalated requests only pay the accurate version's latency, but the
  accurate version's work is spent on every request.
* :class:`EarlyTerminationPolicy` (``et``) — like ``conc``, but the accurate
  version is cancelled as soon as the fast result is accepted, so the wasted
  work is bounded by the fast version's latency.

All policies are evaluated by *replaying* a
:class:`~repro.service.measurement.MeasurementSet`: the per-request error,
latency and confidence of each version were measured once, and the policy
decides which of those measurements the consumer would have received.  This
mirrors the paper's rule generator, which simulates configurations over
training data rather than re-running models.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import checks
from repro.core.outcomes import EnsembleOutcomes, LazyRequestIds
from repro.service.measurement import MeasurementSet

__all__ = [
    "ConcurrentPolicy",
    "EarlyTerminationPolicy",
    "EnsemblePolicy",
    "SequentialPolicy",
    "SingleVersionPolicy",
]


class EnsemblePolicy:
    """Base class for ensembling policies.

    Subclasses implement :meth:`evaluate`, returning per-request
    :class:`~repro.core.outcomes.EnsembleOutcomes` for a measurement set.
    """

    #: Short policy kind identifier (``"single"``, ``"seq"``, ``"conc"``, ``"et"``).
    kind: str = "base"

    @property
    def name(self) -> str:
        """Unique, human-readable policy name."""
        raise NotImplementedError

    @property
    def versions(self) -> Tuple[str, ...]:
        """Service versions the policy may use."""
        raise NotImplementedError

    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        """Replay the policy over (a subset of) a measurement set.

        Args:
            measurements: Dense measurement table for the service.
            indices: Optional row indices restricting the replay.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _select_rows(
        measurements: MeasurementSet, indices: Optional[Sequence[int]]
    ) -> np.ndarray:
        if indices is None:
            return np.arange(measurements.n_requests)
        rows = np.asarray(indices, dtype=int)
        if rows.size == 0:
            raise ValueError("cannot evaluate a policy over zero requests")
        return rows


class SingleVersionPolicy(EnsemblePolicy):
    """Serve every request with one fixed service version.

    Args:
        version: The service version to use.
    """

    kind = "single"

    def __init__(self, version: str) -> None:
        self._version = version

    @property
    def name(self) -> str:
        return f"single[{self._version}]"

    @property
    def versions(self) -> Tuple[str, ...]:
        return (self._version,)

    @property
    def version(self) -> str:
        """The single version used."""
        return self._version

    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        rows = self._select_rows(measurements, indices)
        col = measurements.version_index(self._version)
        latency = measurements.latency_s[rows, col]
        return EnsembleOutcomes(
            policy_name=self.name,
            request_ids=LazyRequestIds(measurements.request_ids, rows),
            error=measurements.error[rows, col],
            response_time_s=latency,
            node_seconds={self._version: latency.copy()},
            escalated=np.zeros(rows.size, dtype=bool),
        )


class _TwoVersionPolicy(EnsemblePolicy):
    """Shared machinery of the fast/accurate confidence-gated policies."""

    def __init__(
        self, fast_version: str, accurate_version: str, confidence_threshold: float
    ) -> None:
        if fast_version == accurate_version:
            raise ValueError("fast and accurate versions must differ")
        checks.probability("confidence_threshold", confidence_threshold)
        self.fast_version = fast_version
        self.accurate_version = accurate_version
        self.confidence_threshold = confidence_threshold

    @property
    def name(self) -> str:
        return (
            f"{self.kind}[{self.fast_version}->{self.accurate_version}"
            f"@{self.confidence_threshold:.2f}]"
        )

    @property
    def versions(self) -> Tuple[str, ...]:
        return (self.fast_version, self.accurate_version)

    def _columns(
        self, measurements: MeasurementSet, rows: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        fast = measurements.version_index(self.fast_version)
        accurate = measurements.version_index(self.accurate_version)
        return (
            measurements.error[rows, fast],
            measurements.latency_s[rows, fast],
            measurements.confidence[rows, fast],
            measurements.error[rows, accurate],
            measurements.latency_s[rows, accurate],
        )


class SequentialPolicy(_TwoVersionPolicy):
    """Fast first; escalate to the accurate version when unconfident."""

    kind = "seq"

    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        rows = self._select_rows(measurements, indices)
        fast_err, fast_lat, fast_conf, acc_err, acc_lat = self._columns(
            measurements, rows
        )
        escalate = fast_conf < self.confidence_threshold
        error = np.where(escalate, acc_err, fast_err)
        response = np.where(escalate, fast_lat + acc_lat, fast_lat)
        return EnsembleOutcomes(
            policy_name=self.name,
            request_ids=LazyRequestIds(measurements.request_ids, rows),
            error=error,
            response_time_s=response,
            node_seconds={
                self.fast_version: fast_lat.copy(),
                self.accurate_version: np.where(escalate, acc_lat, 0.0),
            },
            escalated=escalate,
        )


class ConcurrentPolicy(_TwoVersionPolicy):
    """Run both versions in parallel; the accurate one always completes."""

    kind = "conc"

    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        rows = self._select_rows(measurements, indices)
        fast_err, fast_lat, fast_conf, acc_err, acc_lat = self._columns(
            measurements, rows
        )
        escalate = fast_conf < self.confidence_threshold
        error = np.where(escalate, acc_err, fast_err)
        response = np.where(escalate, np.maximum(fast_lat, acc_lat), fast_lat)
        return EnsembleOutcomes(
            policy_name=self.name,
            request_ids=LazyRequestIds(measurements.request_ids, rows),
            error=error,
            response_time_s=response,
            node_seconds={
                self.fast_version: fast_lat.copy(),
                # The accurate version runs to completion on every request,
                # whether or not its result is used.
                self.accurate_version: acc_lat.copy(),
            },
            escalated=escalate,
        )


class EarlyTerminationPolicy(_TwoVersionPolicy):
    """Concurrent execution with cancellation of the accurate version.

    When the fast version's result is accepted, the accurate version is
    killed at that moment, so its wasted node time is bounded by the fast
    version's latency instead of its own.
    """

    kind = "et"

    def evaluate(
        self,
        measurements: MeasurementSet,
        indices: Optional[Sequence[int]] = None,
    ) -> EnsembleOutcomes:
        rows = self._select_rows(measurements, indices)
        fast_err, fast_lat, fast_conf, acc_err, acc_lat = self._columns(
            measurements, rows
        )
        escalate = fast_conf < self.confidence_threshold
        error = np.where(escalate, acc_err, fast_err)
        response = np.where(escalate, np.maximum(fast_lat, acc_lat), fast_lat)
        accurate_seconds = np.where(
            escalate, acc_lat, np.minimum(acc_lat, fast_lat)
        )
        return EnsembleOutcomes(
            policy_name=self.name,
            request_ids=LazyRequestIds(measurements.request_ids, rows),
            error=error,
            response_time_s=response,
            node_seconds={
                self.fast_version: fast_lat.copy(),
                self.accurate_version: accurate_seconds,
            },
            escalated=escalate,
        )
