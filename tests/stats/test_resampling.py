"""Tests for repro.stats.resampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.resampling import kfold_indices


class TestKfoldIndices:
    def test_partition_properties(self, rng):
        folds = kfold_indices(23, 5, rng=rng)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))
        for train, test in folds:
            assert set(train.tolist()).isdisjoint(set(test.tolist()))
            assert len(train) + len(test) == 23

    def test_deterministic_without_rng(self):
        folds_a = kfold_indices(10, 2)
        folds_b = kfold_indices(10, 2)
        for (tr_a, te_a), (tr_b, te_b) in zip(folds_a, folds_b):
            assert np.array_equal(tr_a, tr_b)
            assert np.array_equal(te_a, te_b)

    def test_rejects_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_indices(3, 4)

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)

    def test_rejects_an_empty_population(self):
        with pytest.raises(ValueError, match="population size must be positive"):
            kfold_indices(0, 2)

    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=2, max_value=4))
    def test_fold_sizes_balanced(self, n, folds):
        pairs = kfold_indices(n, folds, rng=np.random.default_rng(1))
        sizes = [len(test) for _, test in pairs]
        assert max(sizes) - min(sizes) <= 1
