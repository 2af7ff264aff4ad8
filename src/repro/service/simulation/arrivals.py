"""Arrival processes for offered-load generation.

The serving simulator decouples *when* requests arrive from *what* they
ask for.  This module provides the when: Poisson arrivals (the classic
open-loop model), a two-state bursty process (calm/burst phases with
different rates, an on/off MMPP), rate-varying processes for the
fault-injection scenarios — a diurnal curve and a flash-crowd spike, both
non-homogeneous Poisson processes sampled by thinning — and trace-driven
arrivals replaying recorded timestamps.  Every process emits absolute
arrival times in seconds, sorted ascending, for a caller-supplied number
of requests.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro import checks

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "SpikeArrivals",
    "ThunderingHerdArrivals",
    "TraceArrivals",
]


class ArrivalProcess(Protocol):
    """Protocol every arrival process implements."""

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        """Absolute arrival times (seconds, ascending) for ``n_requests``."""
        ...


class PoissonArrivals:
    """Open-loop Poisson arrivals at a fixed mean rate.

    Args:
        rate: Mean arrival rate in requests per second.
    """

    def __init__(self, rate: float) -> None:
        self.rate = checks.positive("rate", rate)

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        checks.integer("n_requests", n_requests, minimum=1)
        gaps = rng.exponential(1.0 / self.rate, size=n_requests)
        return np.cumsum(gaps)

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate:g}/s)"


class BurstyArrivals:
    """Two-state bursty arrivals: calm phases punctuated by bursts.

    An on/off Markov-modulated Poisson process: the source alternates
    between a *calm* phase (rate ``base_rate``, exponentially distributed
    duration with mean ``mean_calm_s``) and a *burst* phase (rate
    ``burst_rate``, mean duration ``mean_burst_s``).  Within each phase
    arrivals are Poisson at the phase's rate.

    Args:
        base_rate: Requests per second during calm phases.
        burst_rate: Requests per second during bursts (must exceed
            ``base_rate``).
        mean_calm_s: Mean calm-phase duration in seconds.
        mean_burst_s: Mean burst duration in seconds.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        *,
        mean_calm_s: float = 10.0,
        mean_burst_s: float = 2.0,
    ) -> None:
        self.base_rate = checks.positive("base_rate", base_rate)
        self.burst_rate = checks.ordered(
            "base_rate", base_rate, "burst_rate", burst_rate
        )
        self.mean_calm_s = checks.positive("mean_calm_s", mean_calm_s)
        self.mean_burst_s = checks.positive("mean_burst_s", mean_burst_s)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate (phase-duration weighted)."""
        total = self.mean_calm_s + self.mean_burst_s
        return (
            self.base_rate * self.mean_calm_s
            + self.burst_rate * self.mean_burst_s
        ) / total

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        checks.integer("n_requests", n_requests, minimum=1)
        arrivals: list = []
        clock = 0.0
        in_burst = False
        while len(arrivals) < n_requests:
            rate = self.burst_rate if in_burst else self.base_rate
            mean_phase = self.mean_burst_s if in_burst else self.mean_calm_s
            phase_end = clock + rng.exponential(mean_phase)
            t = clock
            while len(arrivals) < n_requests:
                t += rng.exponential(1.0 / rate)
                if t > phase_end:
                    break
                arrivals.append(t)
            clock = phase_end
            in_burst = not in_burst
        return np.asarray(arrivals[:n_requests])

    def __repr__(self) -> str:
        return (
            f"BurstyArrivals(base={self.base_rate:g}/s, "
            f"burst={self.burst_rate:g}/s)"
        )


def _thinned_poisson_times(
    n_requests: int,
    rng: np.random.Generator,
    max_rate: float,
    rate_at,
) -> np.ndarray:
    """Sample a non-homogeneous Poisson process by thinning.

    Candidate arrivals are drawn from a homogeneous process at
    ``max_rate`` and accepted with probability ``rate_at(t) / max_rate``
    — the classic Lewis–Shedler construction.  Draw order is fixed (one
    exponential gap plus one uniform per candidate), so a fixed RNG state
    always yields the same arrival times.
    """
    arrivals = np.empty(n_requests, dtype=float)
    count = 0
    t = 0.0
    while count < n_requests:
        t += rng.exponential(1.0 / max_rate)
        if rng.uniform() * max_rate <= rate_at(t):
            arrivals[count] = t
            count += 1
    return arrivals


class DiurnalArrivals:
    """Sinusoidal-rate arrivals: the classic day/night traffic curve.

    The instantaneous rate is

        ``rate(t) = base_rate * (1 + amplitude * sin(2 pi t / period_s + phase))``

    so traffic swings between ``base_rate * (1 - amplitude)`` and
    ``base_rate * (1 + amplitude)`` over one period.  Useful for
    autoscaler scenarios where capacity must track a slow, predictable
    wave rather than a spike.

    Args:
        base_rate: Mean arrival rate in requests per second.
        amplitude: Relative swing of the curve, in ``[0, 1)``.
        period_s: Length of one full day/night cycle in virtual seconds.
        phase: Phase offset in radians (``0`` starts at the mean rate,
            rising).
    """

    def __init__(
        self,
        base_rate: float,
        *,
        amplitude: float = 0.5,
        period_s: float = 60.0,
        phase: float = 0.0,
    ) -> None:
        self.base_rate = checks.positive("base_rate", base_rate)
        self.amplitude = checks.non_negative("amplitude", amplitude)
        if amplitude >= 1.0:
            raise ValueError(f"amplitude must be below 1, got {amplitude!r}")
        self.period_s = checks.positive("period_s", period_s)
        self.phase = checks.finite("phase", phase)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t``."""
        angle = 2.0 * np.pi * t / self.period_s + self.phase
        return self.base_rate * (1.0 + self.amplitude * float(np.sin(angle)))

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        checks.integer("n_requests", n_requests, minimum=1)
        max_rate = self.base_rate * (1.0 + self.amplitude)
        return _thinned_poisson_times(n_requests, rng, max_rate, self.rate_at)

    def __repr__(self) -> str:
        return (
            f"DiurnalArrivals(base={self.base_rate:g}/s, "
            f"amplitude={self.amplitude:g}, period={self.period_s:g}s)"
        )


class SpikeArrivals:
    """A flash crowd: steady traffic with a multiplicative spike window.

    Outside the window arrivals are Poisson at ``base_rate``; inside
    ``[spike_start_s, spike_start_s + spike_duration_s)`` the rate jumps
    to ``base_rate * spike_multiplier``.  This is the canonical
    "retweeted by someone famous" scenario for resilience testing: the
    interesting question is what the tail and the autoscaler do during
    and just after the step.

    Args:
        base_rate: Requests per second outside the spike.
        spike_start_s: Virtual time the spike begins.
        spike_duration_s: Length of the spike window.
        spike_multiplier: Rate multiplier during the spike (must exceed 1).
    """

    def __init__(
        self,
        base_rate: float,
        *,
        spike_start_s: float,
        spike_duration_s: float,
        spike_multiplier: float = 5.0,
    ) -> None:
        self.base_rate = checks.positive("base_rate", base_rate)
        self.spike_start_s = checks.non_negative("spike_start_s", spike_start_s)
        self.spike_duration_s = checks.positive("spike_duration_s", spike_duration_s)
        self.spike_multiplier = checks.ordered(
            "1", 1.0, "spike_multiplier", spike_multiplier
        )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t``."""
        in_spike = (
            self.spike_start_s
            <= t
            < self.spike_start_s + self.spike_duration_s
        )
        return self.base_rate * (self.spike_multiplier if in_spike else 1.0)

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        checks.integer("n_requests", n_requests, minimum=1)
        max_rate = self.base_rate * self.spike_multiplier
        return _thinned_poisson_times(n_requests, rng, max_rate, self.rate_at)

    def __repr__(self) -> str:
        return (
            f"SpikeArrivals(base={self.base_rate:g}/s, "
            f"x{self.spike_multiplier:g} at "
            f"[{self.spike_start_s:g}, "
            f"{self.spike_start_s + self.spike_duration_s:g}]s)"
        )


class ThunderingHerdArrivals:
    """Hold arrivals through an outage window, release them as one surge.

    Wraps any base :class:`ArrivalProcess` and applies the
    :class:`~repro.service.simulation.faults.ThunderingHerd` transform:
    arrivals the base process generates inside ``[start_s, end_s)`` are
    *held* — clients stuck behind an outage, a dead cache, a paused
    mobile fleet — and released together when the window ends,
    compressed into ``[end_s, end_s + spread_s]`` in their original
    order.  Arrivals outside the window are untouched.

    The transform is purely positional: it draws nothing from the RNG,
    so the base process consumes exactly the same draws with and without
    the herd, and the wrapped workload stays seed-deterministic.

    Args:
        base: Arrival process generating the underlying workload.
        start_s: Virtual time the hold window opens.
        end_s: Virtual time held traffic is released.
        spread_s: Width of the release burst (``0`` stacks every held
            arrival at exactly ``end_s``).
    """

    def __init__(
        self,
        base: ArrivalProcess,
        *,
        start_s: float,
        end_s: float,
        spread_s: float = 0.05,
    ) -> None:
        self.base = base
        self.start_s = checks.non_negative("start_s", start_s)
        self.end_s = checks.ordered("start_s", start_s, "end_s", end_s)
        self.spread_s = checks.non_negative("spread_s", spread_s)

    def held_count(self, times_s: np.ndarray) -> int:
        """How many of ``times_s`` fall inside the hold window."""
        held = (times_s >= self.start_s) & (times_s < self.end_s)
        return int(np.count_nonzero(held))

    def apply(self, times_s: np.ndarray) -> np.ndarray:
        """Transform already-sampled arrival times (no RNG involved)."""
        base_times = np.asarray(times_s, dtype=float)
        held = (base_times >= self.start_s) & (base_times < self.end_s)
        if not held.any():
            return base_times
        out = base_times.copy()
        window = self.end_s - self.start_s
        # Map each held arrival's position inside the window onto the
        # release burst, preserving order: t -> end + (t-start)/window*spread.
        out[held] = self.end_s + (base_times[held] - self.start_s) * (
            self.spread_s / window
        )
        return np.sort(out)

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        return self.apply(self.base.times(n_requests, rng))

    def __repr__(self) -> str:
        return (
            f"ThunderingHerdArrivals({self.base!r}, "
            f"hold=[{self.start_s:g}, {self.end_s:g})s, "
            f"spread={self.spread_s:g}s)"
        )


class TraceArrivals:
    """Replay recorded arrival timestamps.

    Args:
        times_s: Absolute arrival timestamps in seconds; must be
            non-negative and non-decreasing.
    """

    def __init__(self, times_s: Sequence[float]) -> None:
        trace = np.asarray(times_s, dtype=float)
        if trace.size == 0:
            raise ValueError("trace must contain at least one arrival")
        checks.non_negative("times_s", trace)
        if (np.diff(trace) < 0.0).any():
            raise ValueError("times_s must be non-decreasing")
        self._trace = trace

    def __len__(self) -> int:
        return int(self._trace.size)

    def times(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        checks.integer("n_requests", n_requests, minimum=1)
        if n_requests > self._trace.size:
            raise ValueError(
                f"trace holds {self._trace.size} arrivals but "
                f"{n_requests} were requested"
            )
        return self._trace[:n_requests].copy()

    def __repr__(self) -> str:
        return f"TraceArrivals(n={self._trace.size})"
