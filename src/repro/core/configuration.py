"""Ensemble configurations and the design space the rule generator searches.

A *configuration* is one concrete deployable choice: an ensembling policy
with all of its parameters bound (which versions, which confidence
threshold).  The routing-rule generator bootstraps every candidate
configuration and then assigns one to each Tolerance Tier.

:func:`enumerate_configurations` builds the paper's design space: every
single version, plus every (fast version, accurate version) pair combined
under the sequential / concurrent / early-termination policies across a
grid of confidence thresholds.  The paper notes that richer spaces (three
or more versions, learned routers) did not outperform these simple
policies, so they are kept as ablations rather than defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    EnsemblePolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.service.measurement import MeasurementSet

__all__ = ["EnsembleConfiguration", "enumerate_configurations"]

_POLICY_CLASSES = {
    "seq": SequentialPolicy,
    "conc": ConcurrentPolicy,
    "et": EarlyTerminationPolicy,
}

#: Default confidence-threshold grid for the two-version policies.
DEFAULT_THRESHOLDS: Tuple[float, ...] = tuple(
    round(0.20 + 0.05 * i, 2) for i in range(15)
)


@dataclass(frozen=True)
class EnsembleConfiguration:
    """One deployable ensemble configuration.

    Attributes:
        config_id: Stable identifier within a design space.
        policy: The bound ensembling policy.
    """

    config_id: str
    policy: EnsemblePolicy

    @property
    def name(self) -> str:
        """The underlying policy's name."""
        return self.policy.name

    @property
    def versions(self) -> Tuple[str, ...]:
        """Service versions the configuration uses."""
        return self.policy.versions

    @property
    def kind(self) -> str:
        """Policy kind (``single`` / ``seq`` / ``conc`` / ``et``)."""
        return self.policy.kind


def enumerate_configurations(
    measurements: MeasurementSet,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    policy_kinds: Sequence[str] = ("single", "seq", "conc", "et"),
    accurate_version: Optional[str] = None,
    fast_versions: Optional[Sequence[str]] = None,
) -> List[EnsembleConfiguration]:
    """Enumerate the candidate design space for a measurement set.

    Args:
        measurements: Measurement set whose versions define the space.
        thresholds: Confidence-threshold grid for the two-version policies.
        policy_kinds: Which policy families to include.
        accurate_version: The "big" version every two-version ensemble
            escalates to; defaults to the most accurate version of the set.
        fast_versions: Candidate "little" versions; defaults to every other
            version.

    Returns:
        A list of uniquely identified configurations.  Single-version
        configurations come first (they double as baselines).
    """
    unknown = set(policy_kinds) - ({"single"} | set(_POLICY_CLASSES))
    if unknown:
        raise ValueError(f"unknown policy kinds: {sorted(unknown)}")
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")

    if accurate_version is None:
        accurate_version = measurements.most_accurate_version()
    if accurate_version not in measurements.versions:
        raise ValueError(f"unknown accurate version {accurate_version!r}")
    if fast_versions is None:
        fast_versions = [
            v for v in measurements.versions if v != accurate_version
        ]
    else:
        for version in fast_versions:
            if version not in measurements.versions:
                raise ValueError(f"unknown fast version {version!r}")

    configurations: List[EnsembleConfiguration] = []
    counter = 0

    if "single" in policy_kinds:
        for version in measurements.versions:
            configurations.append(
                EnsembleConfiguration(
                    config_id=f"cfg_{counter:03d}",
                    policy=SingleVersionPolicy(version),
                )
            )
            counter += 1

    for kind in policy_kinds:
        if kind == "single":
            continue
        policy_cls = _POLICY_CLASSES[kind]
        for fast in fast_versions:
            if fast == accurate_version:
                continue
            for threshold in thresholds:
                configurations.append(
                    EnsembleConfiguration(
                        config_id=f"cfg_{counter:03d}",
                        policy=policy_cls(fast, accurate_version, threshold),
                    )
                )
                counter += 1
    return configurations
