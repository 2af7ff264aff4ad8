"""Per-request accuracy-latency behaviour categories (paper Fig. 2e-f, Fig. 3).

The paper classifies every service request by how its result quality
changes as progressively slower/more accurate service versions are used:

* **unchanged** — every version produces the same error (the large
  majority: >74 % for ASR, >65 % for IC in the paper);
* **improves** — error only ever goes down (weakly) as versions get more
  accurate, with at least one strict improvement;
* **degrades** — error only ever goes up (weakly), with at least one strict
  regression (slower versions can be *worse* for some inputs — a key
  argument against "one size fits all");
* **varies** — error moves in both directions across the version sweep.

Versions are ordered by increasing mean latency for this analysis, matching
the paper's presentation of the version sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.service.measurement import MeasurementSet

__all__ = [
    "CATEGORY_NAMES",
    "CategoryBreakdown",
    "categorize_requests",
    "error_by_category",
]

#: Canonical category names in presentation order.
CATEGORY_NAMES: Tuple[str, ...] = ("unchanged", "improves", "degrades", "varies")


@dataclass(frozen=True)
class CategoryBreakdown:
    """Category assignment for every request of a measurement set.

    Attributes:
        service: Service name the breakdown belongs to.
        versions_by_latency: Version names ordered by increasing mean
            latency (the order used to judge improvement/degradation).
        assignments: Category name per request (aligned with
            ``request_ids``).
        request_ids: The request identifiers.
    """

    service: str
    versions_by_latency: Tuple[str, ...]
    assignments: Tuple[str, ...]
    request_ids: Tuple[str, ...]

    def shares(self) -> Dict[str, float]:
        """Fraction of requests in each category (sums to 1.0)."""
        total = len(self.assignments)
        return {
            name: sum(1 for a in self.assignments if a == name) / total
            for name in CATEGORY_NAMES
        }

    def indices_of(self, category: str) -> List[int]:
        """Row indices of the requests assigned to ``category``."""
        if category not in CATEGORY_NAMES:
            raise ValueError(
                f"unknown category {category!r}; expected one of {CATEGORY_NAMES}"
            )
        return [i for i, a in enumerate(self.assignments) if a == category]


def _classify_row(errors: np.ndarray, tolerance: float) -> str:
    """Classify one request's error trajectory across the version sweep."""
    deltas = np.diff(errors)
    meaningful = np.abs(deltas) > tolerance
    if not meaningful.any():
        return "unchanged"
    decreases = bool(((deltas < -tolerance)).any())
    increases = bool(((deltas > tolerance)).any())
    if decreases and not increases:
        return "improves"
    if increases and not decreases:
        return "degrades"
    return "varies"


def categorize_requests(
    measurements: MeasurementSet, *, tolerance: float = 1e-9
) -> CategoryBreakdown:
    """Assign every request to an accuracy-latency behaviour category.

    Args:
        measurements: The service's measurement set.
        tolerance: Error changes smaller than this are treated as "no
            change" (useful for continuous metrics such as WER).
    """
    order = np.argsort(
        [measurements.mean_latency(v) for v in measurements.versions]
    )
    ordered_versions = tuple(measurements.versions[i] for i in order)
    error = measurements.error[:, order]
    assignments = tuple(
        _classify_row(error[i], tolerance) for i in range(measurements.n_requests)
    )
    return CategoryBreakdown(
        service=measurements.service,
        versions_by_latency=ordered_versions,
        assignments=assignments,
        request_ids=measurements.request_ids,
    )


def error_by_category(
    measurements: MeasurementSet,
    breakdown: CategoryBreakdown | None = None,
    *,
    include_all: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Mean error per category for every service version (paper Fig. 3).

    Args:
        measurements: The service's measurement set.
        breakdown: Optional precomputed category breakdown.
        include_all: Also include the ``"all"`` group covering every request
            (the paper's "all" bars).

    Returns:
        ``{group: {version: mean_error}}`` where groups are the category
        names (excluding ``unchanged``, which the paper omits because it is
        unaffected by the configuration) plus optionally ``"all"``.
    """
    if breakdown is None:
        breakdown = categorize_requests(measurements)
    groups: Dict[str, Sequence[int]] = {}
    for name in CATEGORY_NAMES:
        if name == "unchanged":
            continue
        indices = breakdown.indices_of(name)
        if indices:
            groups[name] = indices
    if include_all:
        groups["all"] = list(range(measurements.n_requests))

    result: Dict[str, Dict[str, float]] = {}
    for group, indices in groups.items():
        rows = measurements.error[np.asarray(indices, dtype=int)]
        result[group] = {
            version: float(rows[:, j].mean())
            for j, version in enumerate(measurements.versions)
        }
    return result
