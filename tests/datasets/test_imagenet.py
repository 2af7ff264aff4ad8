"""Tests for the synthetic ImageNet surrogate dataset."""

import numpy as np
import pytest

from repro.datasets.imagenet import (
    SyntheticImageDataset,
    SyntheticImageNetConfig,
    make_imagenet_surrogate,
)


class TestConfigValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SyntheticImageNetConfig(n_classes=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticImageNetConfig(noise_std=-1.0)

    def test_rejects_inverted_signal_range(self):
        with pytest.raises(ValueError):
            SyntheticImageNetConfig(signal_range=(2.0, 1.0))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"n_images": 0}, "n_images"),
            ({"image_size": 3}, "image_size"),
            ({"channels": 0}, "channels"),
        ],
    )
    def test_rejects_degenerate_geometry(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SyntheticImageNetConfig(**kwargs)


class TestDatasetStructure:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_imagenet_surrogate(n_images=120, n_classes=4, image_size=8, seed=5)

    def test_shapes(self, dataset):
        assert dataset.images.shape == (120, 1, 8, 8)
        assert dataset.labels.shape == (120,)
        assert dataset.prototypes.shape == (4, 1, 8, 8)

    def test_labels_in_range(self, dataset):
        assert dataset.labels.min() >= 0
        assert dataset.labels.max() < 4

    def test_iteration_and_indexing(self, dataset):
        image, label = dataset[3]
        assert image.shape == (1, 8, 8)
        assert isinstance(label, int)
        assert len(list(dataset)) == len(dataset)

    def test_high_signal_images_closer_to_prototype(self, dataset):
        # The highest-signal images should correlate better with their class
        # prototype than the lowest-signal images, on average.
        correlations = []
        for i in range(len(dataset)):
            proto = dataset.prototypes[dataset.labels[i]].ravel()
            img = dataset.images[i].ravel()
            correlations.append(np.dot(proto, img) / (np.linalg.norm(proto) * np.linalg.norm(img)))
        correlations = np.array(correlations)
        order = np.argsort(dataset.signal)
        low = correlations[order[:30]].mean()
        high = correlations[order[-30:]].mean()
        assert high > low


class TestDeterminism:
    def test_same_seed_identical(self):
        a = make_imagenet_surrogate(n_images=30, seed=2)
        b = make_imagenet_surrogate(n_images=30, seed=2)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = make_imagenet_surrogate(n_images=30, seed=2)
        b = make_imagenet_surrogate(n_images=30, seed=3)
        assert not np.array_equal(a.images, b.images)
