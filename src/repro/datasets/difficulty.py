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
from typing import Dict, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

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
        if self.idiosyncratic_std < 0.0:
            raise ValueError("idiosyncratic_std must be non-negative")
        if self.difficulty_std <= 0.0:
            raise ValueError("difficulty_std must be positive")


class DifficultyModel:
    """Samples per-request difficulties and per-version correctness.

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
        if n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        self.profile = profile or DifficultyProfile()
        self._rng = rng
        self._difficulty = rng.normal(
            0.0, self.profile.difficulty_std, size=n_requests
        )

    @property
    def n_requests(self) -> int:
        """Number of requests covered by this model."""
        return int(self._difficulty.size)

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
        if not 0.0 < error_rate < 1.0:
            raise ValueError(
                f"error_rate must be in (0, 1), got {error_rate}"
            )
        total_std = float(
            np.hypot(self.profile.difficulty_std, self.profile.idiosyncratic_std)
        )
        return float(ndtri(1.0 - error_rate) * total_std)

    def correctness_for_skill(self, skill: float) -> np.ndarray:
        """Sample a boolean correctness vector for a version of given skill.

        Each call draws fresh idiosyncratic noise (one disturbance per
        request) from the model's generator, but reuses the shared latent
        difficulties, preserving cross-version correlation.
        """
        eps = self._rng.normal(
            0.0, self.profile.idiosyncratic_std, size=self.n_requests
        )
        return skill >= self._difficulty + eps

    def correctness_table(
        self, skills: Dict[str, float]
    ) -> Dict[str, np.ndarray]:
        """Sample correctness vectors for a named set of versions.

        Args:
            skills: Mapping from version name to skill value.

        Returns:
            Mapping from version name to a boolean correctness array of
            length :attr:`n_requests`.
        """
        return {
            name: self.correctness_for_skill(skill)
            for name, skill in skills.items()
        }

    def calibrated_correctness_table(
        self, error_rates: Dict[str, float]
    ) -> Dict[str, np.ndarray]:
        """Sample correctness vectors calibrated to target error rates."""
        skills = {
            name: self.skill_for_error_rate(rate)
            for name, rate in error_rates.items()
        }
        return self.correctness_table(skills)

    def expected_error_rate(self, skill: float) -> float:
        """Closed-form marginal error rate for a version of given skill."""
        total_std = float(
            np.hypot(self.profile.difficulty_std, self.profile.idiosyncratic_std)
        )
        return float(1.0 - ndtr(skill / total_std))

    @staticmethod
    def empirical_error_rate(correctness: Sequence[bool]) -> float:
        """Fraction of incorrect answers in a correctness vector."""
        arr = np.asarray(correctness, dtype=bool)
        if arr.size == 0:
            raise ValueError("correctness vector is empty")
        return float(1.0 - arr.mean())
