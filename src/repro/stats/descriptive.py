"""Descriptive statistics helpers.

These helpers wrap a handful of NumPy reductions behind small, explicit
functions so that the rest of the code base never has to worry about empty
sequences, mixed int/float inputs, or NaN propagation rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "StreamingMoments",
    "Summary",
    "geometric_mean",
    "percentile",
    "percentiles",
    "summarize",
]


@dataclass(frozen=True)
class Summary:
    """A compact five-number-plus summary of a sample.

    Attributes:
        count: Number of observations.
        mean: Arithmetic mean.
        std: Population standard deviation (``ddof=0``).
        minimum: Smallest observation.
        p50: Median.
        p90: 90th percentile.
        p99: 99th percentile.
        maximum: Largest observation.
    """

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def as_dict(self) -> dict:
        """Return the summary as a plain dictionary (JSON-friendly)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Summary:
    """Summarise a sample of numbers.

    Args:
        values: Any iterable of finite numbers.  Must be non-empty.

    Returns:
        A :class:`Summary` of the sample.

    Raises:
        ValueError: If the sample is empty.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    p50, p90, p99 = percentiles(arr, (50.0, 90.0, 99.0))
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=p50,
        p90=p90,
        p99=p99,
        maximum=float(arr.max()),
    )


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Rank several percentiles of one sample with a single sort.

    NumPy's default ``linear`` rule (Hyndman & Fan type 7) spelled out in
    Python floats — same virtual index, same two-sided interpolation, so
    the bits equal ``np.percentile(values, q)`` without depending on how
    NumPy implements it.  An empty sample, or one holding a ``nan``,
    ranks to ``nan``.

    Args:
        values: The sample (any order, may be empty).
        qs: Percentiles, each in ``[0, 100]``.

    Raises:
        ValueError: If any ``q`` is out of range.
    """
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
    ranked = np.array(values, dtype=float)
    ranked.sort()
    ranked = ranked.tolist()
    n = len(ranked)
    if n == 0 or ranked[-1] != ranked[-1]:  # a nan sorts last
        return [float("nan")] * len(qs)
    results = []
    for q in qs:
        virtual = (n - 1) * (q / 100.0)
        # At the top of the sample both neighbours are the last element
        # (index -1, which also enters the weight), as in NumPy.
        lower = -1 if virtual >= n - 1 else int(virtual)
        a = ranked[lower]
        b = ranked[lower + 1] if lower >= 0 else a
        gamma = virtual - lower
        spread = b - a
        results.append(
            b - spread * (1.0 - gamma) if gamma >= 0.5 else a + spread * gamma
        )
    return results


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile of ``values``.

    Args:
        values: Non-empty sequence of numbers.
        q: Percentile in ``[0, 100]``.

    Raises:
        ValueError: If ``values`` is empty or ``q`` is out of range.
    """
    (value,) = percentiles(values, (q,))
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    return value


def geometric_mean(values: Sequence[float]) -> float:
    """Return the geometric mean of strictly positive values.

    Raises:
        ValueError: If the sample is empty or contains non-positive values.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take the geometric mean of an empty sample")
    if np.any(arr <= 0.0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.log(arr).mean()))


class StreamingMoments:
    """Numerically stable streaming mean/variance (Welford's algorithm).

    Useful for aggregating per-request measurements without keeping every
    observation in memory, e.g. inside the service load balancer.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold a new observation into the running moments."""
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def extend(self, values: Iterable[float]) -> None:
        """Fold a batch of observations into the running moments."""
        for value in values:
            self.update(value)

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Running population variance (0.0 when fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def std(self) -> float:
        """Running population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Return a new accumulator equivalent to seeing both streams."""
        merged = StreamingMoments()
        total = self._count + other._count
        if total == 0:
            return merged
        delta = other._mean - self._mean
        merged._count = total
        merged._mean = self._mean + delta * other._count / total
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self._count * other._count / total
        )
        return merged
