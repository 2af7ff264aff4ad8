"""Neural-network layers implemented with NumPy.

Each layer implements three methods:

* ``forward(x)`` — compute the output for a batch of inputs,
* ``backward(grad)`` — back-propagate a gradient (used only by the miniature
  trainer; inference-only consumers never call it), and
* ``flops(input_shape)`` — an analytical floating-point-operation count,
  which the classifier converts into a deterministic latency.

Shapes follow the channels-first convention: images are
``(batch, channels, height, width)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Conv2D",
    "Dense",
    "Flatten",
    "GlobalAveragePool",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "Residual",
    "Softmax",
]


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`forward`, :meth:`output_shape` and
    :meth:`flops`; layers with parameters also implement :meth:`backward`
    and expose ``params`` / ``grads`` dictionaries.
    """

    #: Parameter arrays by name (empty for parameter-free layers).
    params: Dict[str, np.ndarray]
    #: Gradient arrays by name, filled by :meth:`backward`.
    grads: Dict[str, np.ndarray]

    def __init__(self) -> None:
        self.params = {}
        self.grads = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad`` and return the gradient w.r.t. the input."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output (excluding the batch dimension)."""
        raise NotImplementedError

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        """Analytical FLOP count for one input of ``input_shape``."""
        raise NotImplementedError


class ReLU(Layer):
    """Element-wise rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad * self._mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class Softmax(Layer):
    """Row-wise softmax over the last dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._output = exp / exp.sum(axis=-1, keepdims=True)
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        # Jacobian-vector product of the softmax.
        dot = (grad * self._output).sum(axis=-1, keepdims=True)
        return self._output * (grad - dot)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return 3 * int(np.prod(input_shape))


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad.reshape(self._input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return 0


class Dense(Layer):
    """Fully connected layer ``y = x W + b``.

    Args:
        in_features: Input dimensionality.
        out_features: Output dimensionality.
        rng: Seeded generator for weight initialisation (He-style scaling).
    """

    def __init__(
        self, in_features: int, out_features: int, *, rng: np.random.Generator
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        scale = np.sqrt(2.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "weight": rng.normal(0.0, scale, size=(in_features, out_features)),
            "bias": np.zeros(out_features),
        }
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}"
            )
        self._input = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grads = {
            "weight": self._input.T @ grad,
            "bias": grad.sum(axis=0),
        }
        return grad @ self.params["weight"].T

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if tuple(input_shape) != (self.in_features,):
            raise ValueError(
                f"Dense({self.in_features} -> {self.out_features}) cannot consume "
                f"input shape {tuple(input_shape)}"
            )
        return (self.out_features,)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return 2 * self.in_features * self.out_features


class Conv2D(Layer):
    """2-D convolution with 'same' or 'valid' padding (stride 1 or 2).

    Implemented with im2col so the inner loop is a single matrix multiply.

    Args:
        in_channels: Number of input channels.
        out_channels: Number of output channels (filters).
        kernel_size: Square kernel side length.
        stride: Spatial stride (1 or 2).
        padding: ``"same"`` or ``"valid"``.
        rng: Seeded generator for weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: str = "same",
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts and kernel size must be positive")
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        if padding not in ("same", "valid"):
            raise ValueError("padding must be 'same' or 'valid'")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.params = {
            "weight": rng.normal(
                0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
            ),
            "bias": np.zeros(out_channels),
        }
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    # -- geometry ------------------------------------------------------
    def _pad_amount(self) -> int:
        if self.padding == "valid":
            return 0
        return (self.kernel_size - 1) // 2

    def _spatial_out(self, size: int) -> int:
        pad = self._pad_amount()
        return (size + 2 * pad - self.kernel_size) // self.stride + 1

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ValueError(
                f"Conv2D expects {self.in_channels} input channels, got {channels}"
            )
        return (self.out_channels, self._spatial_out(height), self._spatial_out(width))

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        _, height, width = input_shape
        out_h, out_w = self._spatial_out(height), self._spatial_out(width)
        per_position = 2 * self.in_channels * self.kernel_size * self.kernel_size
        return per_position * out_h * out_w * self.out_channels

    # -- im2col --------------------------------------------------------
    def _im2col(self, x: np.ndarray) -> Tuple[np.ndarray, int, int]:
        batch, channels, height, width = x.shape
        pad = self._pad_amount()
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out_h = self._spatial_out(height)
        out_w = self._spatial_out(width)
        k = self.kernel_size
        cols = np.empty((batch, channels, k, k, out_h, out_w), dtype=x.dtype)
        for i in range(k):
            i_end = i + self.stride * out_h
            for j in range(k):
                j_end = j + self.stride * out_w
                cols[:, :, i, j, :, :] = x[
                    :, :, i:i_end:self.stride, j:j_end:self.stride
                ]
        cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
            batch * out_h * out_w, channels * k * k
        )
        return cols, out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input of shape (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        self._input_shape = x.shape
        cols, out_h, out_w = self._im2col(x)
        self._cols = cols
        weight = self.params["weight"].reshape(self.out_channels, -1)
        out = cols @ weight.T + self.params["bias"]
        return out.reshape(x.shape[0], out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, _, height, width = self._input_shape
        out_h, out_w = grad.shape[2], grad.shape[3]
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

        weight = self.params["weight"].reshape(self.out_channels, -1)
        self.grads = {
            "weight": (grad_flat.T @ self._cols).reshape(self.params["weight"].shape),
            "bias": grad_flat.sum(axis=0),
        }

        cols_grad = grad_flat @ weight  # (batch*out_h*out_w, C*k*k)
        k = self.kernel_size
        cols_grad = cols_grad.reshape(batch, out_h, out_w, self.in_channels, k, k)
        cols_grad = cols_grad.transpose(0, 3, 4, 5, 1, 2)

        pad = self._pad_amount()
        padded = np.zeros(
            (batch, self.in_channels, height + 2 * pad, width + 2 * pad),
            dtype=grad.dtype,
        )
        for i in range(k):
            i_end = i + self.stride * out_h
            for j in range(k):
                j_end = j + self.stride * out_w
                padded[:, :, i:i_end:self.stride, j:j_end:self.stride] += cols_grad[
                    :, :, i, j, :, :
                ]
        if pad:
            return padded[:, :, pad:-pad, pad:-pad]
        return padded


class MaxPool2D(Layer):
    """Non-overlapping 2-D max pooling.

    Args:
        pool_size: Side length of the square pooling window (also the
            stride); input spatial dimensions must be divisible by it.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 1:
            raise ValueError("pool_size must be at least 2")
        self.pool_size = pool_size
        self._input_shape: Optional[Tuple[int, ...]] = None
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"spatial dimensions ({height}x{width}) must be divisible by {p}"
            )
        self._input_shape = x.shape
        reshaped = x.reshape(batch, channels, height // p, p, width // p, p)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // p, width // p, p * p
        )
        self._argmax = windows.argmax(axis=-1)
        return windows.max(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._input_shape
        p = self.pool_size
        out = np.zeros(
            (batch, channels, height // p, width // p, p * p), dtype=grad.dtype
        )
        idx = np.indices(self._argmax.shape)
        out[idx[0], idx[1], idx[2], idx[3], self._argmax] = grad
        out = out.reshape(batch, channels, height // p, width // p, p, p)
        return out.transpose(0, 1, 2, 4, 3, 5).reshape(batch, channels, height, width)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        return (channels, height // self.pool_size, width // self.pool_size)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class GlobalAveragePool(Layer):
    """Average over the spatial dimensions, producing one value per channel."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._input_shape
        expanded = grad[:, :, None, None] / (height * width)
        return np.broadcast_to(expanded, self._input_shape).copy()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (input_shape[0],)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class Residual(Layer):
    """Residual block: ``y = relu(inner(x) + x)``.

    Args:
        inner_layers: Layers forming the residual branch; their composition
            must preserve the input shape.
    """

    def __init__(self, inner_layers: Sequence[Layer]) -> None:
        super().__init__()
        if not inner_layers:
            raise ValueError("a residual block needs at least one inner layer")
        self.inner_layers: List[Layer] = list(inner_layers)
        self._relu = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.inner_layers:
            out = layer.forward(out)
        if out.shape != x.shape:
            raise ValueError(
                "residual branch changed the tensor shape: "
                f"{x.shape} -> {out.shape}"
            )
        return self._relu.forward(out + x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self._relu.backward(grad)
        branch_grad = grad
        for layer in reversed(self.inner_layers):
            branch_grad = layer.backward(branch_grad)
        return branch_grad + grad

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = input_shape
        for layer in self.inner_layers:
            shape = layer.output_shape(shape)
        return shape

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        total = 0
        shape = input_shape
        for layer in self.inner_layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total + int(np.prod(input_shape))
