"""Shared statistics helpers used across the Tolerance Tiers reproduction.

The sub-modules are intentionally small and dependency-light:

* :mod:`repro.stats.descriptive` -- the sort-once percentile kernel.
* :mod:`repro.stats.resampling` -- seeded subsampling and k-fold splits.
* :mod:`repro.stats.confidence` -- z-score / normal-quantile confidence tests
  used by the routing-rule generator (paper Fig. 7).
* :mod:`repro.stats.normal` -- the standard normal CDF (``ndtr``) and
  quantile (``ndtri``), ported from Cephes bit for bit with SciPy's, so
  the package needs only NumPy at run time (SciPy is a test oracle).
"""

from repro.stats.confidence import (
    ConfidenceTest,
    normal_quantile,
    spread_is_confident,
    zscores,
)
from repro.stats.descriptive import percentiles
from repro.stats.resampling import kfold_indices, subsample_indices

__all__ = [
    "ConfidenceTest",
    "kfold_indices",
    "normal_quantile",
    "percentiles",
    "spread_is_confident",
    "subsample_indices",
    "zscores",
]
