"""Seeded resampling utilities: subsampling and k-fold splits.

The routing-rule generator (paper Fig. 7) repeatedly *subsamples* the
training data, simulates a candidate configuration on the subsample, and
keeps going until the observed spread of the metrics is statistically
confident.  The evaluation additionally uses 10-fold cross validation to
audit the accuracy guarantees on held-out requests.  All of the index-level
machinery for that lives here so that it can be tested in isolation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["kfold_indices", "subsample_indices"]


def _validate_population(n: int) -> None:
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")


def subsample_indices(
    n: int, size: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Draw a subsample of indices *without* replacement.

    This is the sampling mode the routing-rule generator uses for each
    bootstrap trial: a random ``len(train)/10`` slice of the training data.

    Args:
        n: Population size.
        size: Subsample size, clipped to ``[1, n]``.
        rng: Seeded NumPy generator.
    """
    _validate_population(n)
    size = int(min(max(size, 1), n))
    return rng.choice(n, size=size, replace=False)


def kfold_indices(
    n: int, folds: int, *, rng: np.random.Generator | None = None
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split ``range(n)`` into ``folds`` (train, test) index pairs.

    The split is a shuffled partition: every index appears in exactly one
    test fold.  Fold sizes differ by at most one.

    Args:
        n: Population size.
        folds: Number of folds; must satisfy ``2 <= folds <= n``.
        rng: Optional seeded generator.  When omitted the split is the
            unshuffled contiguous partition (deterministic).

    Returns:
        A list of ``folds`` tuples ``(train_idx, test_idx)``.
    """
    _validate_population(n)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if folds > n:
        raise ValueError(f"cannot split {n} items into {folds} folds")
    order = np.arange(n)
    if rng is not None:
        order = rng.permutation(n)
    splits = np.array_split(order, folds)
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    for i, test_idx in enumerate(splits):
        train_idx = np.concatenate([splits[j] for j in range(folds) if j != i])
        pairs.append((np.sort(train_idx), np.sort(test_idx)))
    return pairs
