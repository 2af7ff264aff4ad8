"""The tolerance grid the paper evaluates.

A tier is what the API consumer programs against: "I can tolerate at most
X relative error degradation compared to the most accurate tier; subject to
that, optimise Y" where Y is response time or invocation cost — on the
wire, a request's ``tolerance`` and ``objective``
(:class:`~repro.service.request.ServiceRequest`).  The paper evaluates
tolerances from 0 to 10 % in 0.1 % steps with a 99.9 % confidence
requirement on the guarantee.
"""

from __future__ import annotations

from typing import List

__all__ = ["default_tolerance_grid"]


def default_tolerance_grid(
    *, maximum: float = 0.10, step: float = 0.001
) -> List[float]:
    """The paper's tolerance grid: 0 to ``maximum`` in ``step`` increments.

    Args:
        maximum: Largest tolerance (default 10 %).
        step: Grid spacing (default 0.1 %).

    Returns:
        Monotonically increasing tolerances, starting at ``step`` (the 0 %
        tier is the most accurate configuration by definition and needs no
        rule).
    """
    if maximum <= 0.0 or step <= 0.0:
        raise ValueError("maximum and step must be positive")
    if step > maximum:
        raise ValueError("step must not exceed maximum")
    n_steps = int(round(maximum / step))
    return [round(step * (i + 1), 10) for i in range(n_steps)]
