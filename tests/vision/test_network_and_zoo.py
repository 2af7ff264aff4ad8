"""Tests for the network container, model zoo, trainer and classifier."""

import numpy as np
import pytest

from repro.vision.classifier import ImageClassifier
from repro.vision.layers import Dense, ReLU
from repro.vision.model_zoo import MINI_MODEL_BUILDERS, build_mini_model
from repro.vision.network import NeuralNetwork
from repro.vision.training import SGDTrainer, TrainingConfig, softmax_cross_entropy


class TestNeuralNetwork:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NeuralNetwork("empty", [], (4,))

    def test_shape_validation_at_construction(self, rng):
        with pytest.raises(ValueError):
            NeuralNetwork("bad", [Dense(4, 3, rng=rng), Dense(5, 2, rng=rng)], (4,))

    def test_forward_single_and_batch(self, rng):
        net = NeuralNetwork("mlp", [Dense(4, 3, rng=rng), ReLU()], (4,))
        single = net.forward(np.ones(4))
        batch = net.forward(np.ones((5, 4)))
        assert single.shape == (3,)
        assert batch.shape == (5, 3)

    def test_forward_rejects_wrong_shape(self, rng):
        net = NeuralNetwork("mlp", [Dense(4, 3, rng=rng)], (4,))
        with pytest.raises(ValueError):
            net.forward(np.ones((5, 7)))

    def test_predict_proba_normalised(self, rng):
        net = NeuralNetwork("mlp", [Dense(4, 3, rng=rng)], (4,))
        proba = net.predict_proba(np.ones((2, 4)))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_flops_positive(self, rng):
        net = NeuralNetwork("mlp", [Dense(4, 3, rng=rng)], (4,))
        assert net.flops() > 0


class TestModelZoo:
    def test_all_builders_construct(self):
        for name in MINI_MODEL_BUILDERS:
            net = build_mini_model(name, (1, 8, 8), 5, seed=0)
            assert net.output_shape == (5,)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_mini_model("mini_transformer", (1, 8, 8), 5)

    def test_capacity_ordering(self):
        flops = [
            build_mini_model(name, (1, 16, 16), 10, seed=0).flops()
            for name in MINI_MODEL_BUILDERS
        ]
        # squeezenet is the cheapest and vgg the most expensive
        assert flops[0] == min(flops)
        assert flops[-1] == max(flops)

    def test_deterministic_weights(self):
        a = build_mini_model("mini_alexnet", (1, 8, 8), 4, seed=3)
        b = build_mini_model("mini_alexnet", (1, 8, 8), 4, seed=3)
        assert np.array_equal(a.layers[0].params["weight"], b.layers[0].params["weight"])


class TestTraining:
    def test_softmax_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1]])
        labels = np.array([0])
        loss, grad = softmax_cross_entropy(logits, labels)
        proba = np.exp(logits) / np.exp(logits).sum()
        assert loss == pytest.approx(float(-np.log(proba[0, 0])))
        assert grad.shape == logits.shape
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(momentum=1.5)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"weight_decay": -1e-3}, "weight_decay"),
        ],
    )
    def test_config_validation_names_the_field(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainingConfig(**kwargs)

    def test_softmax_cross_entropy_needs_a_batch_of_logits(self):
        with pytest.raises(ValueError, match=r"\(batch, classes\)"):
            softmax_cross_entropy(np.array([2.0, 1.0, 0.1]), np.array([0]))

    def test_training_reduces_loss(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        trainer = SGDTrainer(net, TrainingConfig(epochs=4, learning_rate=0.1, seed=0))
        history = trainer.train(image_dataset.images[:150], image_dataset.labels[:150])
        assert history[-1]["loss"] < history[0]["loss"]
        assert history[-1]["accuracy"] > 0.3

    def test_rejects_mismatched_shapes(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        trainer = SGDTrainer(net)
        with pytest.raises(ValueError):
            trainer.train(image_dataset.images[:10], image_dataset.labels[:9])


class TestClassifier:
    def test_classification_result_fields(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        classifier = ImageClassifier(net, device_gflops=1.0)
        image, label = image_dataset[0]
        result = classifier.classify(image, label, request_id="img_0")
        assert result.request_id == "img_0"
        assert result.top1_error in (0.0, 1.0)
        assert (result.top1_error == 0.0) == (result.predicted_class == label)
        assert 0.0 <= result.confidence <= 1.0
        assert result.latency_s > 0.0

    def test_latency_scales_with_device(self, image_dataset):
        net = build_mini_model("mini_vgg", (1, 8, 8), 5, seed=0)
        slow = ImageClassifier(net, device_gflops=1.0, fixed_overhead_s=0.0)
        fast = ImageClassifier(net, device_gflops=10.0, fixed_overhead_s=0.0)
        assert fast.latency_per_request == pytest.approx(slow.latency_per_request / 10)

    def test_batch_classification(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        classifier = ImageClassifier(net)
        results = classifier.classify_batch(
            image_dataset.images[:8], image_dataset.labels[:8]
        )
        assert len(results) == 8

    def test_batch_rejects_mismatch(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        classifier = ImageClassifier(net)
        with pytest.raises(ValueError):
            classifier.classify_batch(image_dataset.images[:8], image_dataset.labels[:7])

    def test_validation(self, image_dataset):
        net = build_mini_model("mini_squeezenet", (1, 8, 8), 5, seed=0)
        with pytest.raises(ValueError):
            ImageClassifier(net, device_gflops=0.0)
        with pytest.raises(ValueError, match="fixed_overhead_s"):
            ImageClassifier(net, fixed_overhead_s=-0.001)
