"""Seeded k-fold splits.

The evaluation uses 10-fold cross validation to audit the accuracy
guarantees on held-out requests; the index-level machinery for that lives
here so that it can be tested in isolation.  (The routing-rule
generator's bootstrap subsamples are drawn by its trial stream,
:mod:`repro.core.bootstrap`.)
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["kfold_indices"]


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
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")
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
