"""Service-facing image classifier.

:class:`ImageClassifier` wraps a :class:`~repro.vision.network.NeuralNetwork`
behind the same shape of interface the ASR engine exposes: classify one
request, report the prediction, a confidence, the correctness against the
label, and a deterministic modelled latency derived from the network's FLOP
count and the host device's throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro import checks
from repro.vision.network import NeuralNetwork

__all__ = ["ClassificationResult", "ImageClassifier"]


@dataclass(frozen=True)
class ClassificationResult:
    """Everything a service version reports for one classification request.

    Attributes:
        request_id: Identifier of the classified image.
        model_name: Name of the network that produced the prediction.
        predicted_class: Arg-max class id.
        true_class: Ground-truth class id.
        confidence: Arg-max softmax probability in ``[0, 1]``.
        top1_error: 0.0 if the prediction is correct, 1.0 otherwise (the
            paper's per-request accuracy metric).
        latency_s: Modelled single-node processing latency in seconds.
    """

    request_id: str
    model_name: str
    predicted_class: int
    true_class: int
    confidence: float
    top1_error: float
    latency_s: float


class ImageClassifier:
    """Wraps a NumPy network as an image-classification service version.

    Args:
        network: The trained (or untrained) network to serve.
        device_gflops: Sustained throughput of the host device in GFLOP/s;
            converts the network's analytical FLOP count into latency.
        fixed_overhead_s: Fixed per-request overhead (pre/post-processing).
    """

    def __init__(
        self,
        network: NeuralNetwork,
        *,
        device_gflops: float = 2.0,
        fixed_overhead_s: float = 2e-3,
    ) -> None:
        self.network = network
        self.device_gflops = checks.positive("device_gflops", device_gflops)
        self.fixed_overhead_s = checks.non_negative(
            "fixed_overhead_s", fixed_overhead_s
        )

    @property
    def latency_per_request(self) -> float:
        """Deterministic modelled latency of one classification."""
        return self.network.flops() / (self.device_gflops * 1e9) + self.fixed_overhead_s

    def classify(
        self, image: np.ndarray, label: int, *, request_id: str = "img"
    ) -> ClassificationResult:
        """Classify one image and report the outcome.

        Args:
            image: A single image of the network's input shape.
            label: Ground-truth class id (used only to report correctness).
            request_id: Identifier recorded in the result.
        """
        proba = self.network.predict_proba(image[None])[0]
        predicted = int(np.argmax(proba))
        return ClassificationResult(
            request_id=request_id,
            model_name=self.network.name,
            predicted_class=predicted,
            true_class=int(label),
            confidence=float(proba[predicted]),
            top1_error=0.0 if predicted == int(label) else 1.0,
            latency_s=self.latency_per_request,
        )

    def classify_batch(
        self,
        images: np.ndarray,
        labels: Sequence[int],
        *,
        request_ids: Sequence[str] | None = None,
    ) -> Tuple[ClassificationResult, ...]:
        """Classify a batch of images, one result per image."""
        labels = list(labels)
        if images.shape[0] != len(labels):
            raise ValueError("images and labels disagree on the sample count")
        if request_ids is None:
            request_ids = [f"img_{i:06d}" for i in range(len(labels))]
        proba = self.network.predict_proba(images)
        results = []
        for i, (label, request_id) in enumerate(zip(labels, request_ids)):
            predicted = int(np.argmax(proba[i]))
            results.append(
                ClassificationResult(
                    request_id=request_id,
                    model_name=self.network.name,
                    predicted_class=predicted,
                    true_class=int(label),
                    confidence=float(proba[i, predicted]),
                    top1_error=0.0 if predicted == int(label) else 1.0,
                    latency_s=self.latency_per_request,
                )
            )
        return tuple(results)
