"""Latent per-request difficulty model.

The "one size fits all" analysis in the paper hinges on how per-request
correctness is *correlated across model versions*: most requests get the
same result from every version ("unchanged"), a meaningful minority only
succeed under more capable versions ("improves"), and a small set flips in
either direction ("varies"/"degrades").

This module provides the latent-difficulty probit model used by the
calibrated image-classification profiles (and available to any other
substrate).  Each request draws a latent difficulty ``d ~ N(0, 1)``.  A
model version with *skill* ``s`` answers the request correctly when

    s >= d + eps

where ``eps ~ N(0, sigma_idiosyncratic)`` is a small per-(request, version)
disturbance.  Marginalising over requests, the version's error rate is

    P(wrong) = 1 - Phi(s / sqrt(1 + sigma^2))

so a version can be calibrated to any target error rate in closed form via
:meth:`DifficultyModel.skill_for_error_rate`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro import checks
from repro.stats.normal import ndtri

__all__ = ["DifficultyModel", "DifficultyProfile"]


@dataclass(frozen=True)
class DifficultyProfile:
    """Parameters of the latent difficulty distribution.

    Attributes:
        idiosyncratic_std: Standard deviation of the per-(request, version)
            disturbance ``eps``.  Zero makes correctness a deterministic
            threshold on difficulty (versions become perfectly nested);
            larger values produce more "varies"/"degrades" requests.
        difficulty_std: Standard deviation of the latent difficulty.
    """

    idiosyncratic_std: float = 0.35
    difficulty_std: float = 1.0

    def __post_init__(self) -> None:
        checks.non_negative("idiosyncratic_std", self.idiosyncratic_std)
        checks.positive("difficulty_std", self.difficulty_std)


class DifficultyModel:
    """Samples per-request difficulties and calibrates version skills.

    Args:
        n_requests: Number of requests in the synthetic workload.
        profile: Distributional parameters.
        rng: Seeded generator; the difficulty draw is made eagerly so that
            every version sees the *same* latent difficulties.
    """

    def __init__(
        self,
        n_requests: int,
        *,
        profile: DifficultyProfile | None = None,
        rng: np.random.Generator,
    ) -> None:
        checks.integer("n_requests", n_requests, minimum=1)
        self.profile = profile or DifficultyProfile()
        self._difficulty = rng.normal(
            0.0, self.profile.difficulty_std, size=n_requests
        )

    @property
    def difficulties(self) -> np.ndarray:
        """The latent difficulty of every request (copy)."""
        return self._difficulty.copy()

    def skill_for_error_rate(self, error_rate: float) -> float:
        """Return the version skill that yields a target marginal error rate.

        Args:
            error_rate: Desired fraction of requests answered incorrectly,
                strictly inside ``(0, 1)``.
        """
        checks.unit_open("error_rate", error_rate)
        total_std = float(
            np.hypot(self.profile.difficulty_std, self.profile.idiosyncratic_std)
        )
        return float(ndtri(1.0 - error_rate) * total_std)
