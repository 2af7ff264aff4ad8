"""Shared statistics helpers used across the Tolerance Tiers reproduction.

The sub-modules are intentionally small and dependency-light:

* :mod:`repro.stats.descriptive` -- means, percentiles, summaries.
* :mod:`repro.stats.resampling` -- seeded bootstrap and subsampling utilities.
* :mod:`repro.stats.confidence` -- z-score / normal-quantile confidence tests
  used by the routing-rule generator (paper Fig. 7).
* :mod:`repro.stats.changepoint` -- step-change detection over benchmark
  metric histories, judged at the confidence test's level instead of a
  fixed threshold.
"""

from repro.stats.changepoint import (
    Changepoint,
    detect_step,
    shift_zscore,
)
from repro.stats.confidence import (
    ConfidenceTest,
    normal_quantile,
    spread_is_confident,
    zscores,
)
from repro.stats.descriptive import (
    StreamingMoments,
    Summary,
    geometric_mean,
    percentile,
    percentiles,
    summarize,
)
from repro.stats.resampling import (
    bootstrap_indices,
    bootstrap_statistic,
    kfold_indices,
    subsample_indices,
)

__all__ = [
    "Changepoint",
    "ConfidenceTest",
    "StreamingMoments",
    "Summary",
    "bootstrap_indices",
    "bootstrap_statistic",
    "detect_step",
    "geometric_mean",
    "kfold_indices",
    "normal_quantile",
    "percentile",
    "percentiles",
    "shift_zscore",
    "spread_is_confident",
    "subsample_indices",
    "summarize",
    "zscores",
]
