"""Miniature SGD trainer for the NumPy model zoo.

The trainer exists so the repository contains the full training → inference
→ serving path for the image-classification substrate.  It trains the
miniature networks on the synthetic image dataset in seconds, which is what
the examples and tests use; paper-scale experiments instead rely on the
calibrated profiles in :mod:`repro.vision.profiles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import checks
from repro.vision.network import NeuralNetwork

__all__ = ["SGDTrainer", "TrainingConfig", "softmax_cross_entropy"]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy loss and its gradient w.r.t. the logits.

    Combining the softmax and the cross-entropy yields the numerically
    stable gradient ``(softmax(logits) - onehot) / batch``, which is what
    the trainer back-propagates through the network.

    Args:
        logits: Unnormalised class scores of shape ``(batch, classes)``.
        labels: Integer labels of shape ``(batch,)``.

    Returns:
        ``(loss, grad)`` where ``grad`` has the same shape as ``logits``.
    """
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_proba = shifted - log_norm
    loss = float(-log_proba[np.arange(batch), labels].mean())
    grad = np.exp(log_proba)
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the miniature trainer.

    Attributes:
        epochs: Number of passes over the training set.
        batch_size: Mini-batch size.
        learning_rate: SGD step size.
        momentum: Classical momentum coefficient.
        weight_decay: L2 regularisation strength.
        seed: Shuffling seed.
    """

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        checks.integer("epochs", self.epochs, minimum=1)
        checks.integer("batch_size", self.batch_size, minimum=1)
        checks.positive("learning_rate", self.learning_rate)
        checks.non_negative("momentum", self.momentum)
        if self.momentum >= 1.0:
            raise ValueError(f"momentum must be below 1, got {self.momentum!r}")
        checks.non_negative("weight_decay", self.weight_decay)


class SGDTrainer:
    """Plain SGD-with-momentum trainer for :class:`NeuralNetwork`.

    Args:
        network: The network to train.  The network must produce *logits*
            (no trailing softmax layer); the trainer combines softmax and
            cross-entropy itself for numerical stability.
        config: Training hyper-parameters.
    """

    def __init__(self, network: NeuralNetwork, config: TrainingConfig | None = None) -> None:
        self.network = network
        self.config = config or TrainingConfig()
        self._velocity: Dict[int, Dict[str, np.ndarray]] = {}

    def _step(self, grad_scale: float = 1.0) -> None:
        """Apply one SGD update using the gradients stored in each layer."""
        cfg = self.config
        for layer in self.network.layers:
            layer_vel = self._velocity.setdefault(id(layer), {})
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is None:
                    continue
                grad = grad * grad_scale + cfg.weight_decay * param
                vel = layer_vel.get(name)
                if vel is None:
                    vel = np.zeros_like(param)
                vel = cfg.momentum * vel - cfg.learning_rate * grad
                layer_vel[name] = vel
                param += vel

    def train(
        self, images: np.ndarray, labels: np.ndarray
    ) -> List[Dict[str, float]]:
        """Train the network and return per-epoch metrics.

        Args:
            images: Array of shape ``(n, *input_shape)``.
            labels: Integer labels of shape ``(n,)``.

        Returns:
            One dictionary per epoch with ``loss`` and ``accuracy`` keys.
        """
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels disagree on the sample count")
        rng = np.random.default_rng(self.config.seed)
        history: List[Dict[str, float]] = []
        n = images.shape[0]
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            losses: List[float] = []
            correct = 0
            for start in range(0, n, self.config.batch_size):
                idx = order[start : start + self.config.batch_size]
                batch_x = images[idx]
                batch_y = labels[idx]
                logits = self.network.forward(batch_x)
                loss, grad = softmax_cross_entropy(logits, batch_y)
                losses.append(loss)
                correct += int((np.argmax(logits, axis=-1) == batch_y).sum())
                self.network.backward(grad)
                self._step()
            history.append(
                {"loss": float(np.mean(losses)), "accuracy": correct / n}
            )
        return history
