"""Confidence tests used by the routing-rule generator.

The generator in the paper (Fig. 7) keeps running bootstrap trials of a
candidate ensemble configuration until, for every metric (error degradation,
response time, cost), the observed trial values have spread "enough": the
z-scores of the trial values must straddle the normal quantile implied by the
requested confidence level, or span more than twice that quantile.  Once the
spread condition holds, the *worst* observed value is recorded as the
configuration's worst-case estimate.

This module implements that spread test as an explicit, documented function
so it can be unit- and property-tested independent of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import checks, contract
from repro.stats.normal import ndtri

__all__ = [
    "ConfidenceTest",
    "normal_quantile",
    "spread_is_confident",
    "zscores",
]

#: Relative noise floor below which a sample's spread is treated as zero.
#: A constant sample whose mean subtraction leaves float dust has
#: ``std ~ eps * |value|`` (~1e-16 relative); genuine bootstrap-metric
#: spread is many orders of magnitude larger.  Without this floor the
#: z-score normalisation divides by that near-zero std and amplifies pure
#: rounding noise into "observed spread", letting a degenerate metric
#: falsely certify confidence.
_REL_SPREAD_FLOOR = 1e-12


#: A constant prefix of ``t <= _SETTLED_MAX_RUN`` copies of one finite
#: value ``x`` (zero, or ``_SETTLED_MIN_ABS <= |x| <= _SETTLED_MAX_ABS``) is
#: one the scalar test provably routes to its constant-sample rule: the
#: mean's rounding is at most about ``t * eps / 2 * |x| < 5e-13 * |x|``,
#: so the std sits below the relative noise floor, and neither its
#: square overflows nor its subnormal rounding reaches the floor.
_SETTLED_MAX_RUN = 4096
_SETTLED_MIN_ABS = 1e-140
_SETTLED_MAX_ABS = 1e140


def _is_effectively_constant(arr: np.ndarray, std: float) -> bool:
    """Whether a sample's spread is indistinguishable from rounding noise."""
    if std == 0.0:
        return True
    scale = float(np.abs(arr).max())
    return std <= _REL_SPREAD_FLOOR * scale


def _constant_rule_trials(confidence: float) -> int:
    """Trials a constant sample needs before the test accepts it."""
    needed = int(np.ceil(1.0 / max(1.0 - confidence, 1e-12)))
    # Cap the requirement so that degenerate (constant) metrics cannot
    # force an unbounded number of trials at very high confidence.
    return min(needed, 30)


def _settles(value):
    """Whether a constant sample of ``value`` is one the constant-sample
    rule settles (elementwise on arrays; ``False`` for ``nan`` / ``inf``)."""
    magnitude = np.abs(value)
    return (magnitude == 0.0) | (
        (magnitude >= _SETTLED_MIN_ABS) & (magnitude <= _SETTLED_MAX_ABS)
    )


def normal_quantile(confidence: float) -> float:
    """Return the standard-normal quantile for a confidence level.

    Args:
        confidence: Confidence level in the open interval ``(0, 1)``,
            e.g. :data:`~repro.contract.RULEGEN_CONFIDENCE`, the paper's
            99.9 % setting.

    Returns:
        ``Phi^{-1}(confidence)`` — the number of standard deviations a
        trial value must sit away from the mean before the spread test
        considers the sample "wide enough".

    Raises:
        ValueError: If ``confidence`` is not strictly between 0 and 1.
    """
    return float(ndtri(checks.unit_open("confidence", confidence)))


def zscores(values: Sequence[float]) -> np.ndarray:
    """Return the z-scores of a sample (zeros when the spread is zero).

    A plain z-score divides by zero on a constant sample; the generator
    must instead treat one as "no spread observed yet", so that case maps
    to an all-zeros array.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.empty(0, dtype=float)
    std = arr.std()
    if std == 0.0:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


def spread_is_confident(values: Sequence[float], confidence: float) -> bool:
    """Decide whether a metric's bootstrap trials have spread enough.

    This mirrors the ``confident`` predicate of the paper's
    ``RoutingRuleGenerator`` (Fig. 7): with ``z`` the z-scores of the trial
    values and ``q`` the normal quantile of the confidence level, the sample
    is confident when either

    * ``min(z) < -q`` and ``max(z) > q`` (the trials straddle both tails), or
    * ``max(z) - min(z) > 2 q`` (the total spread exceeds two quantiles).

    A sample with fewer than two trials is never confident.  A *constant*
    sample with at least ``ceil(1 / (1 - confidence))`` trials is treated as
    confident: a metric that does not vary at all across that many random
    subsamples has, for the purposes of worst-case estimation, been observed
    directly (this situation arises for deterministic costs).  "Constant"
    is judged against a relative noise floor, not exact float equality —
    a sample whose only variation is rounding dust must follow the
    constant rule, never feed the z-score normalisation (which would
    divide by a near-zero std and manufacture spread out of noise).

    Args:
        values: Observed trial values for one metric.
        confidence: Confidence level in ``(0, 1)``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return False
    return _spread_verdict(arr, normal_quantile(confidence), confidence)


def _spread_verdict(arr: np.ndarray, quantile: float, confidence: float) -> bool:
    """:func:`spread_is_confident` on at least two values, given the
    quantile of ``confidence``."""
    if _is_effectively_constant(arr, float(arr.std())):
        return arr.size >= _constant_rule_trials(confidence)
    z = zscores(arr)
    low, high = z.min(), z.max()
    straddles = bool(low < -quantile and high > quantile)
    wide = bool(high - low > 2.0 * quantile)
    return straddles or wide


def _prefix_spread_flags(
    stacked: np.ndarray, quantile: float, confidence: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Classify every prefix of every row of ``stacked`` (shape ``(C, T)``).

    Returns ``(satisfied, uncertain)`` boolean arrays of the same shape,
    where entry ``[c, t - 1]`` describes the prefix ``stacked[c, :t]``.
    ``satisfied`` is the vectorized verdict of
    :func:`spread_is_confident`; ``uncertain`` marks prefixes whose verdict
    sits within the numerical error bound of the running statistics (or
    whose spread is ~zero, where the scalar test switches to its
    constant-sample rule) and must be re-checked with the exact scalar
    test before being trusted.  An exactly constant prefix of a value
    the constant-sample rule settles is decided by that rule here, with
    no re-check.

    The running mean/variance use cumulative sums of mean-shifted values;
    the error bounds below are conservative for that scheme, so a prefix is
    only ever classified "certain" when the scalar test provably agrees.
    """
    x = stacked
    shift = x.mean(axis=1, keepdims=True)
    y = x - shift
    t = np.arange(1.0, x.shape[1] + 1.0)
    mean = np.cumsum(y, axis=1) / t
    var = np.maximum(np.cumsum(y * y, axis=1) / t - mean * mean, 0.0)
    std = np.sqrt(var)
    ymin = np.minimum.accumulate(y, axis=1)
    ymax = np.maximum.accumulate(y, axis=1)
    amax = np.maximum.accumulate(np.abs(y), axis=1)

    qstd = quantile * std
    low_margin = (ymin - mean) + qstd  # < 0 -> lower tail straddled
    high_margin = (ymax - mean) - qstd  # > 0 -> upper tail straddled
    wide_margin = (ymax - ymin) - 2.0 * qstd  # > 0 -> wide enough
    satisfied = ((low_margin < 0.0) & (high_margin > 0.0)) | (wide_margin > 0.0)

    eps = np.finfo(float).eps
    var_err = 16.0 * t * eps * (amax * amax + np.finfo(float).tiny)
    std_err = var_err / np.maximum(std, np.sqrt(var_err))
    tol = 4.0 * quantile * std_err + 64.0 * t * eps * (amax + std)
    # |shift| + amax bounds the magnitude of the original (unshifted)
    # values, so this flags every prefix the scalar test's relative
    # noise floor would route to the constant-sample rule.
    noise_floor = _REL_SPREAD_FLOOR * (np.abs(shift) + amax)
    uncertain = (
        (np.abs(low_margin) <= tol)
        | (np.abs(high_margin) <= tol)
        | (np.abs(wide_margin) <= tol)
        | (std <= std_err)
        | (std <= noise_floor)
        # an inf or nan trial, or statistics that overflowed where the
        # scalar test's need not
        | ~np.isfinite(tol + var)
    )
    first = x[:, :1]
    constant = np.logical_and.accumulate(x == first, axis=1) & (
        _settles(first) & (t <= _SETTLED_MAX_RUN)
    )
    satisfied = np.where(constant, t >= _constant_rule_trials(confidence), satisfied)
    return satisfied, uncertain & ~constant


@dataclass(frozen=True)
class ConfidenceTest:
    """A reusable spread test bound to a confidence level.

    Attributes:
        confidence: Confidence level in ``(0, 1)``.
        min_trials: Lower bound on the number of trials before the test can
            pass, regardless of spread.  The paper leaves this implicit; the
            default keeps worst-case estimates off one or two lucky
            subsamples.
        max_trials: Upper bound after which the test passes unconditionally,
            protecting the generator from non-terminating loops on
            pathological metrics.
    """

    confidence: float = contract.RULEGEN_CONFIDENCE
    min_trials: int = contract.RULEGEN_MIN_TRIALS
    max_trials: int = contract.CONFIDENCE_TEST_MAX_TRIALS

    def __post_init__(self) -> None:
        checks.unit_open("confidence", self.confidence)
        checks.integer("min_trials", self.min_trials, minimum=2)
        checks.integer("max_trials", self.max_trials, minimum=self.min_trials)

    def is_satisfied(self, values: Sequence[float]) -> bool:
        """Return True when the trial sample for one metric is sufficient."""
        arr = np.asarray(values, dtype=float)
        if arr.size < self.min_trials:
            return False
        if arr.size >= self.max_trials:
            return True
        return spread_is_confident(arr, self.confidence)

    def all_satisfied(self, metric_columns: Sequence[Sequence[float]]) -> bool:
        """Return True when every metric column satisfies the test."""
        columns = list(metric_columns)
        if not columns:
            return False
        return all(self.is_satisfied(column) for column in columns)

    def first_satisfied(
        self,
        metric_columns: Sequence[Sequence[float]],
        *,
        start: int = 1,
    ) -> Optional[int]:
        """Earliest prefix length at which every metric column satisfies.

        This is the vectorized equivalent of running ``all_satisfied`` on
        ``[col[:t] for col in metric_columns]`` for ``t = start, start + 1,
        ...`` and returning the first ``t`` that passes — the check cadence
        of the bootstrap loop (one check per trial).  Prefix verdicts are
        computed with running statistics; any prefix within numerical error
        of a decision boundary is re-checked with the exact scalar test, so
        the returned trial count matches the sequential loop.

        Args:
            metric_columns: Equal-length trial-value columns (one per
                metric), in trial order.
            start: First prefix length to consider (earlier prefixes are
                assumed to have already been checked and found wanting).

        Returns:
            The earliest satisfying prefix length, or ``None`` when no
            prefix of the supplied columns satisfies the test yet.
        """
        columns = [np.asarray(column, dtype=float) for column in metric_columns]
        if not columns:
            return None
        n = columns[0].size
        if any(column.size != n for column in columns):
            raise ValueError("metric columns must have equal length")
        lo = max(start, self.min_trials, 1)
        if lo > n:
            return None
        if lo >= self.max_trials:
            # is_satisfied passes unconditionally once size reaches
            # max_trials, so the first prefix considered wins.
            return lo
        hi = min(n, self.max_trials)

        quantile = normal_quantile(self.confidence)
        satisfied, uncertain = _prefix_spread_flags(
            np.stack([column[:hi] for column in columns]), quantile, self.confidence
        )
        certain_false = (~satisfied & ~uncertain).any(axis=0)
        any_uncertain = uncertain.any(axis=0)
        all_satisfied = satisfied.all(axis=0)
        if hi >= self.max_trials:
            # the max_trials safety valve passes regardless of spread
            certain_false[self.max_trials - 1 :] = False
            any_uncertain[self.max_trials - 1 :] = False
            all_satisfied[self.max_trials - 1 :] = True

        for index in np.flatnonzero(~certain_false[lo - 1 :]):
            t = lo + int(index)
            if not any_uncertain[t - 1]:
                if all_satisfied[t - 1]:
                    return t
                continue
            if all(
                self._is_satisfied_exact(column, t, quantile)
                for column in columns
            ):
                return t
        return None

    def _is_satisfied_exact(
        self, column: np.ndarray, t: int, quantile: float
    ) -> bool:
        """Scalar :meth:`is_satisfied` on ``column[:t]`` with the quantile
        computed once per scan by the caller (the verdict is unchanged)."""
        if t < self.min_trials:
            return False
        if t >= self.max_trials:
            return True
        return _spread_verdict(column[:t], quantile, self.confidence)
