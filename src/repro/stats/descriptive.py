"""Descriptive statistics: the sort-once percentile kernel.

Windowed telemetry ranks several percentiles of one sample per snapshot;
:func:`percentiles` does it with one sort and NumPy's ``linear`` rule
spelled out in Python floats, so empty and ``nan`` samples have one
explicit answer.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["percentiles"]


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
