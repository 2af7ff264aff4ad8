"""Sequential neural-network container.

:class:`NeuralNetwork` strings layers together, tracks the shapes flowing
through them, exposes the total FLOP count (the classifier's latency model)
and provides the forward/backward plumbing the miniature trainer needs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.vision.layers import Layer, Softmax

__all__ = ["NeuralNetwork"]


class NeuralNetwork:
    """A sequential stack of layers.

    Args:
        name: Model name (shows up in measurements and reports).
        layers: Layers applied in order.
        input_shape: Shape of one input sample, channels-first, e.g.
            ``(1, 16, 16)``.

    Raises:
        ValueError: If a layer cannot consume its predecessor's output shape.
    """

    def __init__(
        self, name: str, layers: Sequence[Layer], input_shape: Tuple[int, ...]
    ) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        # Validate shape propagation eagerly so configuration errors surface
        # at construction time rather than mid-experiment.
        self._layer_input_shapes: List[Tuple[int, ...]] = []
        shape = self.input_shape
        for layer in self.layers:
            self._layer_input_shapes.append(shape)
            shape = layer.output_shape(shape)
        self.output_shape = shape

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a batch through the network.

        Args:
            x: Batch of inputs with shape ``(batch, *input_shape)`` or a
                single sample with shape ``input_shape``.
        """
        single = x.shape == self.input_shape
        if single:
            x = x[None]
        expected = (x.shape[0],) + self.input_shape
        if x.shape != expected:
            raise ValueError(f"expected input shape {expected}, got {x.shape}")
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out[0] if single else out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities; appends a softmax if the net lacks one."""
        out = self.forward(x)
        if isinstance(self.layers[-1], Softmax):
            return out
        return Softmax().forward(out)

    # ------------------------------------------------------------------
    # training support
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through every layer (reverse order)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # model statistics
    # ------------------------------------------------------------------
    def flops(self) -> int:
        """Analytical FLOPs for classifying one input sample."""
        total = 0
        for layer, shape in zip(self.layers, self._layer_input_shapes):
            total += layer.flops(shape)
        return int(total)
