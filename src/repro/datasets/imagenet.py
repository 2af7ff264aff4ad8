"""Synthetic image dataset standing in for the ILSVRC-2012 validation set.

The paper evaluates its image-classification service on 45 000 held-out
ImageNet validation images across 1 000 classes.  This module provides a
seeded synthetic substitute with two consumers in mind:

* the NumPy CNN engine in :mod:`repro.vision` needs actual pixel tensors it
  can train miniature networks on and run inference over, and
* the calibrated service-version profiles need a per-image latent difficulty
  that is shared across model versions (provided by
  :class:`repro.datasets.difficulty.DifficultyModel`).

Images are generated as class prototypes (smooth random patterns) scaled by
a per-image signal strength plus Gaussian pixel noise.  The per-image signal
strength doubles as an interpretable difficulty: low-signal images are hard
for every model, high-signal images are easy for every model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro import checks

__all__ = [
    "SyntheticImageDataset",
    "SyntheticImageNetConfig",
    "make_imagenet_surrogate",
]


@dataclass(frozen=True)
class SyntheticImageNetConfig:
    """Configuration of the synthetic image dataset.

    Attributes:
        n_images: Number of evaluation images.
        n_classes: Number of classes (the paper uses 1 000; the default here
            is smaller so miniature CNNs can separate them).
        image_size: Height/width of the square images.
        channels: Number of channels.
        signal_range: Range of per-image signal strengths; images at the low
            end are dominated by noise and hard for every model.
        noise_std: Standard deviation of the additive pixel noise.
        seed: Seed for all dataset randomness.
    """

    n_images: int = 2000
    n_classes: int = 10
    image_size: int = 16
    channels: int = 1
    signal_range: Tuple[float, float] = (0.4, 2.0)
    noise_std: float = 1.0
    seed: int = 20120914

    def __post_init__(self) -> None:
        checks.integer("n_images", self.n_images, minimum=1)
        checks.integer("n_classes", self.n_classes, minimum=2)
        checks.integer("image_size", self.image_size, minimum=4)
        checks.integer("channels", self.channels, minimum=1)
        low, high = self.signal_range
        checks.ordered("signal_range[0]", low, "signal_range[1]", high, strict=False)
        checks.non_negative("noise_std", self.noise_std)


def _smooth_random_pattern(
    rng: np.random.Generator, channels: int, size: int
) -> np.ndarray:
    """Generate a smooth random pattern by blurring white noise."""
    raw = rng.normal(0.0, 1.0, size=(channels, size, size))
    kernel = np.array([0.25, 0.5, 0.25])
    for axis in (1, 2):
        raw = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), axis, raw
        )
    raw -= raw.mean()
    norm = np.linalg.norm(raw)
    if norm > 0:
        raw /= norm
    return raw * np.sqrt(raw.size)


class SyntheticImageDataset:
    """Seeded synthetic replacement for the ImageNet validation set.

    Args:
        config: Dataset configuration.

    Attributes:
        images: Array of shape ``(n_images, channels, size, size)``.
        labels: Integer class labels of shape ``(n_images,)``.
        signal: Per-image signal strength (higher is easier).
        prototypes: Class prototype patterns of shape
            ``(n_classes, channels, size, size)``.
    """

    def __init__(self, config: SyntheticImageNetConfig | None = None) -> None:
        self.config = config or SyntheticImageNetConfig()
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        self.prototypes = np.stack(
            [
                _smooth_random_pattern(rng, cfg.channels, cfg.image_size)
                for _ in range(cfg.n_classes)
            ]
        )
        self.labels = rng.integers(0, cfg.n_classes, size=cfg.n_images)
        low, high = cfg.signal_range
        self.signal = rng.uniform(low, high, size=cfg.n_images)
        noise = rng.normal(
            0.0,
            cfg.noise_std,
            size=(cfg.n_images, cfg.channels, cfg.image_size, cfg.image_size),
        )
        self.images = (
            self.prototypes[self.labels] * self.signal[:, None, None, None]
            + noise
        ).astype(np.float32)

    def __len__(self) -> int:
        return int(self.config.n_images)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, int]]:
        for i in range(len(self)):
            yield self.images[i], int(self.labels[i])

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])


def make_imagenet_surrogate(
    n_images: int = 2000, *, seed: int = 20120914, **overrides
) -> SyntheticImageDataset:
    """Convenience constructor for the ImageNet surrogate dataset."""
    config = SyntheticImageNetConfig(n_images=n_images, seed=seed, **overrides)
    return SyntheticImageDataset(config)
