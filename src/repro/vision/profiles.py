"""Calibrated profiles of the paper's image-classification service versions.

The paper's IC service serves five ImageNet CNNs from the Caffe model zoo —
SqueezeNet, AlexNet, GoogLeNet, ResNet-50 and VGG-16 — on both CPU and GPU
nodes, and evaluates them on 45 000 ILSVRC-2012 validation images.  Training
those networks offline is not feasible, so paper-scale experiments use the
*calibrated profiles* in this module instead: each profile records the
published top-1 error and a representative single-image latency for the
network on a given device, and per-request outcomes are sampled from the
shared latent-difficulty model of :mod:`repro.datasets.difficulty` so that
correctness is realistically correlated across versions (which is what the
paper's request-category analysis measures).

The profiles reproduce the published accuracy/latency *shape* at
evaluation scale; every image-classification figure, benchmark and example
measures them through :func:`repro.service.measure_ic_service`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro import checks
from repro.datasets.difficulty import DifficultyModel, DifficultyProfile
from repro.stats.normal import ndtr

__all__ = [
    "IC_CPU_VERSIONS",
    "IC_GPU_VERSIONS",
    "NetworkProfile",
    "PerRequestOutcomes",
    "simulate_ic_measurements",
]


@dataclass(frozen=True)
class NetworkProfile:
    """Published characteristics of one served network on one device.

    Attributes:
        name: Service-version name, e.g. ``"ic_cpu_resnet50"``.
        architecture: Underlying network architecture.
        device: ``"cpu"`` or ``"gpu"``.
        top1_error: Published ILSVRC-2012 validation top-1 error rate.
        latency_mean_s: Representative single-image inference latency on the
            device, in seconds.
        latency_cv: Coefficient of variation of the per-request latency
            (captures input-size and system jitter).
    """

    name: str
    architecture: str
    device: str
    top1_error: float
    latency_mean_s: float
    latency_cv: float = 0.12

    def __post_init__(self) -> None:
        if self.device not in ("cpu", "gpu"):
            raise ValueError("device must be 'cpu' or 'gpu'")
        checks.unit_open("top1_error", self.top1_error)
        checks.positive("latency_mean_s", self.latency_mean_s)
        checks.non_negative("latency_cv", self.latency_cv)


def _profiles(device: str, latencies: Mapping[str, float]) -> Dict[str, NetworkProfile]:
    """Build the per-device profile table from published top-1 errors."""
    published_top1_error = {
        "squeezenet": 0.425,
        "alexnet": 0.429,
        "googlenet": 0.313,
        "vgg16": 0.285,
        "resnet50": 0.247,
    }
    table: Dict[str, NetworkProfile] = {}
    for arch, latency in latencies.items():
        name = f"ic_{device}_{arch}"
        table[name] = NetworkProfile(
            name=name,
            architecture=arch,
            device=device,
            top1_error=published_top1_error[arch],
            latency_mean_s=latency,
        )
    return table


#: CPU service versions, ordered fastest to slowest (single-image latency).
IC_CPU_VERSIONS: Dict[str, NetworkProfile] = _profiles(
    "cpu",
    {
        "squeezenet": 0.030,
        "alexnet": 0.042,
        "googlenet": 0.085,
        "resnet50": 0.125,
        "vgg16": 0.230,
    },
)

#: GPU service versions, ordered fastest to slowest.
IC_GPU_VERSIONS: Dict[str, NetworkProfile] = _profiles(
    "gpu",
    {
        "squeezenet": 0.0040,
        "alexnet": 0.0050,
        "googlenet": 0.0090,
        "resnet50": 0.0125,
        "vgg16": 0.0210,
    },
)


@dataclass(frozen=True)
class PerRequestOutcomes:
    """Sampled per-request outcomes of one service version.

    Attributes:
        version: Service-version name.
        error: Per-request top-1 error (0.0 or 1.0), length ``n_requests``.
        latency_s: Per-request latency in seconds.
        confidence: Per-request model confidence in ``[0, 1]``.
    """

    version: str
    error: np.ndarray
    latency_s: np.ndarray
    confidence: np.ndarray


def simulate_ic_measurements(
    n_requests: int,
    *,
    versions: Mapping[str, NetworkProfile] | None = None,
    seed: int = 2012,
    difficulty_profile: DifficultyProfile | None = None,
    confidence_sharpness: float = 1.4,
    confidence_noise: float = 0.08,
) -> Tuple[np.ndarray, Dict[str, PerRequestOutcomes]]:
    """Sample calibrated per-request outcomes for every service version.

    Per-request correctness follows the latent-difficulty probit model: a
    request of difficulty ``d`` is classified correctly by a version of
    skill ``s`` when ``s >= d + eps``.  Skills are calibrated so each
    version's marginal error matches its published top-1 error.  Confidence
    is a noisy squash of the same margin, so it correlates with correctness
    the way a softmax max-probability does in practice.

    Args:
        n_requests: Number of requests (images) to simulate.
        versions: Profile table; defaults to :data:`IC_CPU_VERSIONS`.
        seed: Seed for all sampling.
        difficulty_profile: Optional override of the latent difficulty
            distribution.
        confidence_sharpness: Scale of the margin → confidence squash;
            finite and positive (a negative one would invert confidence
            against correctness).
        confidence_noise: Standard deviation of the additive confidence
            noise (before clipping to ``[0.01, 0.999]``); finite and
            non-negative.

    Returns:
        ``(difficulties, outcomes)`` where ``difficulties`` has length
        ``n_requests`` and ``outcomes`` maps version name to
        :class:`PerRequestOutcomes`.

    Raises:
        ValueError: If ``n_requests`` is not an integer >= 1, or a
            confidence knob is out of range or not finite.
    """
    checks.integer("n_requests", n_requests, minimum=1)
    checks.positive("confidence_sharpness", confidence_sharpness, finite=True)
    checks.non_negative("confidence_noise", confidence_noise, finite=True)
    if versions is None:
        versions = IC_CPU_VERSIONS
    rng = np.random.default_rng(seed)
    model = DifficultyModel(n_requests, profile=difficulty_profile, rng=rng)

    outcomes: Dict[str, PerRequestOutcomes] = {}
    for name, profile in versions.items():
        skill = model.skill_for_error_rate(profile.top1_error)
        eps = rng.normal(0.0, model.profile.idiosyncratic_std, size=n_requests)
        margin = skill - (model.difficulties + eps)
        correct = margin >= 0.0

        confidence = ndtr(margin / confidence_sharpness)
        confidence = confidence + rng.normal(0.0, confidence_noise, size=n_requests)
        confidence = np.clip(confidence, 0.01, 0.999)

        sigma = np.sqrt(np.log(1.0 + profile.latency_cv**2))
        mu = np.log(profile.latency_mean_s) - 0.5 * sigma**2
        latency = rng.lognormal(mean=mu, sigma=sigma, size=n_requests)

        outcomes[name] = PerRequestOutcomes(
            version=name,
            error=(~correct).astype(float),
            latency_s=latency,
            confidence=confidence,
        )
    return model.difficulties, outcomes
