"""Per-version trade-off summaries and latency distributions (Fig. 2a-d).

These helpers aggregate a measurement set into the per-version statistics
the paper plots when motivating the limitation study: mean/percentile
latencies, mean errors, and normalised views (speed-up versus the slowest
version, error relative to the most accurate version).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.service.measurement import MeasurementSet
from repro.stats import descriptive

__all__ = ["VersionSummary", "latency_percentiles", "version_summaries"]


@dataclass(frozen=True)
class VersionSummary:
    """Aggregate statistics of one service version.

    Attributes:
        version: Service-version name.
        mean_error: Mean per-request error.
        mean_latency_s: Mean processing latency.
        p99_latency_s: 99th-percentile latency.
        latency_vs_fastest: Mean latency normalised to the fastest version.
        error_vs_best: Relative error degradation versus the most accurate
            version (``(err - err_best) / err_best``).
        mean_confidence: Mean model confidence.
    """

    version: str
    mean_error: float
    mean_latency_s: float
    p99_latency_s: float
    latency_vs_fastest: float
    error_vs_best: float
    mean_confidence: float


def version_summaries(measurements: MeasurementSet) -> Tuple[VersionSummary, ...]:
    """Summarise every version of a measurement set, fastest first."""
    mean_latencies = {
        v: measurements.mean_latency(v) for v in measurements.versions
    }
    mean_errors = {v: measurements.mean_error(v) for v in measurements.versions}
    fastest_latency = min(mean_latencies.values())
    best_error = min(mean_errors.values())

    summaries = []
    for version in measurements.versions:
        latency_column = measurements.column(version, "latency_s")
        confidence_column = measurements.column(version, "confidence")
        error = mean_errors[version]
        summaries.append(
            VersionSummary(
                version=version,
                mean_error=error,
                mean_latency_s=mean_latencies[version],
                p99_latency_s=descriptive.percentiles(latency_column, (99.0,))[0],
                latency_vs_fastest=mean_latencies[version] / fastest_latency,
                error_vs_best=(error - best_error) / best_error
                if best_error > 0
                else 0.0,
                mean_confidence=float(confidence_column.mean()),
            )
        )
    summaries.sort(key=lambda s: s.mean_latency_s)
    return tuple(summaries)


def latency_percentiles(
    measurements: MeasurementSet,
    *,
    percentiles: Sequence[float] = (10, 25, 50, 75, 90, 95, 99),
) -> Dict[str, Dict[str, float]]:
    """Latency percentiles per version (the Fig. 2a-d distribution view).

    Args:
        measurements: The service's measurement set.
        percentiles: Which percentiles to report.

    Returns:
        ``{version: {"p50": ..., "p90": ..., ...}}``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for version in measurements.versions:
        column = measurements.column(version, "latency_s")
        ranked = descriptive.percentiles(column, percentiles)
        out[version] = {f"p{int(q)}": value for q, value in zip(percentiles, ranked)}
    return out
