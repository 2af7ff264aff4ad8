"""Tests for the NumPy neural-network layers, including gradient checks."""

import numpy as np
import pytest

from repro.vision.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    Layer,
    MaxPool2D,
    ReLU,
    Residual,
    Softmax,
)


def _numeric_gradient(layer, x, grad_out, param_name=None, eps=1e-5):
    """Central-difference gradient of sum(output * grad_out)."""
    target = layer.params[param_name] if param_name else x
    numeric = np.zeros_like(target)
    flat = target.ravel()
    numeric_flat = numeric.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float((layer.forward(x) * grad_out).sum())
        flat[i] = original - eps
        minus = float((layer.forward(x) * grad_out).sum())
        flat[i] = original
        numeric_flat[i] = (plus - minus) / (2 * eps)
    return numeric


class TestReLU:
    def test_forward_clamps(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = Softmax().forward(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(Softmax().forward(x), Softmax().forward(x + 100.0))

    def test_flops_positive(self):
        assert Softmax().flops((10,)) > 0

    def test_output_shape_is_input_shape(self):
        assert Softmax().output_shape((7,)) == (7,)

    def test_gradient_check_input(self, rng):
        layer = Softmax()
        x = rng.normal(size=(3, 4))
        grad_out = rng.normal(size=(3, 4))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out)
        assert np.allclose(grad_in, numeric, atol=1e-6)
        # Shifting every logit of a row changes nothing, so no gradient
        # flows along the all-ones direction.
        assert np.allclose(grad_in.sum(axis=1), 0.0)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng=rng)
        assert layer.forward(np.ones((2, 4))).shape == (2, 3)

    def test_rejects_wrong_input_width(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 5)))

    def test_gradient_check_weights(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out, param_name="weight")
        assert np.allclose(layer.grads["weight"], numeric, atol=1e-5)

    def test_gradient_check_input(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out)
        assert np.allclose(grad_in, numeric, atol=1e-5)

    def test_flops(self, rng):
        assert Dense(10, 5, rng=rng).flops((10,)) == 2 * 10 * 5

    @pytest.mark.parametrize("features", [(0, 3), (4, 0), (-1, 2)])
    def test_rejects_non_positive_dimensions(self, rng, features):
        with pytest.raises(ValueError, match="feature dimensions"):
            Dense(*features, rng=rng)


class TestConv2D:
    def test_same_padding_preserves_shape(self, rng):
        layer = Conv2D(2, 4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(2, 2, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    def test_valid_padding_shrinks(self, rng):
        layer = Conv2D(1, 1, 3, padding="valid", rng=rng)
        assert layer.forward(rng.normal(size=(1, 1, 8, 8))).shape == (1, 1, 6, 6)

    def test_stride_two_halves(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, rng=rng)
        assert layer.output_shape((1, 8, 8)) == (2, 4, 4)

    def test_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            Conv2D(1, 1, 3, stride=3, rng=rng)
        with pytest.raises(ValueError):
            Conv2D(1, 1, 3, padding="reflect", rng=rng)

    @pytest.mark.parametrize("shape", [(0, 1, 3), (1, 0, 3), (1, 1, 0)])
    def test_rejects_non_positive_geometry(self, rng, shape):
        with pytest.raises(ValueError, match="must be positive"):
            Conv2D(*shape, rng=rng)

    def test_output_shape_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError, match="expects 2 input channels, got 3"):
            Conv2D(2, 4, 3, rng=rng).output_shape((3, 8, 8))

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2D(2, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 3, 8, 8)))

    def test_matches_direct_convolution(self, rng):
        layer = Conv2D(1, 1, 3, padding="valid", rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))
        out = layer.forward(x)
        kernel = layer.params["weight"][0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i : i + 3, j : j + 3] * kernel).sum()
        assert np.allclose(out[0, 0], expected + layer.params["bias"][0])

    def test_gradient_check_weights(self, rng):
        layer = Conv2D(1, 2, 3, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        layer.forward(x)
        grad_out = rng.normal(size=(1, 2, 4, 4))
        layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out, param_name="weight")
        assert np.allclose(layer.grads["weight"], numeric, atol=1e-4)

    def test_gradient_check_input(self, rng):
        layer = Conv2D(1, 2, 3, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        layer.forward(x)
        grad_out = rng.normal(size=(1, 2, 4, 4))
        grad_in = layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out)
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_flops_scale_with_channels(self, rng):
        small = Conv2D(1, 2, 3, rng=rng).flops((1, 8, 8))
        large = Conv2D(1, 8, 3, rng=rng).flops((1, 8, 8))
        assert large == 4 * small


class TestMaxPool2D:
    def test_forward_takes_max(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == 5.0

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 5)))

    def test_rejects_pool_size_one(self):
        with pytest.raises(ValueError):
            MaxPool2D(1)

    def test_backward_routes_to_argmax(self, rng):
        layer = MaxPool2D(2)
        x = rng.normal(size=(1, 1, 4, 4))
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.shape == x.shape
        assert grad.sum() == pytest.approx(4.0)

    def test_gradient_check_input(self, rng):
        layer = MaxPool2D(2)
        x = rng.normal(size=(1, 1, 4, 4))
        grad_out = rng.normal(size=(1, 1, 2, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        numeric = _numeric_gradient(layer, x, grad_out)
        assert np.allclose(grad_in, numeric, atol=1e-5)


class TestGlobalAveragePool:
    def test_forward(self):
        x = np.ones((2, 3, 4, 4))
        assert np.allclose(GlobalAveragePool().forward(x), 1.0)

    def test_backward_distributes(self, rng):
        layer = GlobalAveragePool()
        x = rng.normal(size=(1, 2, 4, 4))
        layer.forward(x)
        grad = layer.backward(np.ones((1, 2)))
        assert np.allclose(grad, 1.0 / 16)


class TestFlattenAndResidual:
    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        assert layer.backward(out).shape == x.shape

    def test_residual_preserves_shape(self, rng):
        block = Residual([Conv2D(2, 2, 3, rng=rng), ReLU(), Conv2D(2, 2, 3, rng=rng)])
        x = rng.normal(size=(1, 2, 6, 6))
        assert block.forward(x).shape == x.shape

    def test_residual_rejects_shape_change(self, rng):
        block = Residual([Conv2D(2, 4, 3, rng=rng)])
        with pytest.raises(ValueError):
            block.forward(rng.normal(size=(1, 2, 6, 6)))

    def test_residual_rejects_empty(self):
        with pytest.raises(ValueError):
            Residual([])


@pytest.mark.parametrize(
    "make,grad_shape",
    [
        (lambda rng: Softmax(), (1, 3)),
        (lambda rng: Flatten(), (1, 4)),
        (lambda rng: Dense(4, 2, rng=rng), (1, 2)),
        (lambda rng: Conv2D(1, 1, 3, rng=rng), (1, 1, 4, 4)),
        (lambda rng: MaxPool2D(2), (1, 1, 2, 2)),
        (lambda rng: GlobalAveragePool(), (1, 2)),
    ],
    ids=["softmax", "flatten", "dense", "conv2d", "maxpool", "gap"],
)
def test_backward_before_forward_raises(rng, make, grad_shape):
    """Every layer caches its forward input; without one there is nothing
    to differentiate through, and guessing would corrupt the update."""
    with pytest.raises(RuntimeError, match="backward called before forward"):
        make(rng).backward(np.ones(grad_shape))


def test_base_layer_declares_the_interface_only():
    layer = Layer()
    assert layer.params == {} and layer.grads == {}
    for call in (
        lambda: layer.forward(np.ones((1, 2))),
        lambda: layer.backward(np.ones((1, 2))),
        lambda: layer.output_shape((2,)),
        lambda: layer.flops((2,)),
    ):
        with pytest.raises(NotImplementedError):
            call()
