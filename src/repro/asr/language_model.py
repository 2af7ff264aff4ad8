"""Bigram language model with additive smoothing and back-off.

The decoding graph combines acoustic evidence with a word-level language
model (Section II-A).  A bigram model is sufficient to reproduce the
accuracy-latency trade-off: when the beam search prunes aggressively, the
language model is what pulls hypotheses back towards plausible word
sequences, and when it cannot (because the right hypothesis was pruned) the
word error rate rises.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro import checks

__all__ = ["BigramLanguageModel"]

#: Sentinel word id used for the sentence-start context.
START_CONTEXT = -1


class BigramLanguageModel:
    """Additively smoothed bigram language model over integer word ids.

    Args:
        n_words: Vocabulary size.
        smoothing: Additive (Laplace) smoothing constant applied to both the
            unigram and bigram counts.

    The model is trained from whole sentences of word ids via :meth:`fit`
    and queried with log probabilities.  Probabilities are conditional on
    the previous word, with the sentence-start context handled explicitly.
    """

    def __init__(self, n_words: int, *, smoothing: float = 0.1) -> None:
        self.n_words = checks.integer("n_words", n_words, minimum=1)
        self.smoothing = checks.positive("smoothing", smoothing)
        self._bigram_counts = np.zeros((n_words, n_words), dtype=float)
        self._start_counts = np.zeros(n_words, dtype=float)
        self._unigram_counts = np.zeros(n_words, dtype=float)
        self._fitted = False
        self._log_bigram: np.ndarray | None = None
        self._log_start: np.ndarray | None = None
        self._log_unigram: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, sentences: Iterable[Sequence[int]]) -> "BigramLanguageModel":
        """Accumulate counts from sentences of word ids and finalise.

        Args:
            sentences: Iterable of word-id sequences.  Empty sentences are
                ignored.

        Returns:
            ``self`` (for chaining).
        """
        for sentence in sentences:
            ids = [int(w) for w in sentence]
            if not ids:
                continue
            self._validate_ids(ids)
            self._start_counts[ids[0]] += 1.0
            for word in ids:
                self._unigram_counts[word] += 1.0
            for prev, nxt in zip(ids, ids[1:]):
                self._bigram_counts[prev, nxt] += 1.0
        self._finalise()
        return self

    def _validate_ids(self, ids: Sequence[int]) -> None:
        arr = np.asarray(ids, dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_words):
            raise ValueError("sentence contains out-of-vocabulary word ids")

    def _finalise(self) -> None:
        k = self.smoothing
        bigram = self._bigram_counts + k
        self._log_bigram = np.log(bigram / bigram.sum(axis=1, keepdims=True))
        start = self._start_counts + k
        self._log_start = np.log(start / start.sum())
        unigram = self._unigram_counts + k
        self._log_unigram = np.log(unigram / unigram.sum())
        self._fitted = True

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("language model has not been fitted")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def successor_log_probs(self, context: int = START_CONTEXT) -> np.ndarray:
        """Vector of log probabilities for every possible next word."""
        self._require_fitted()
        if context == START_CONTEXT:
            return self._log_start.copy()
        return self._log_bigram[context].copy()

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_word_sentences(
        cls,
        sentences: Iterable[Sequence[str]],
        word_to_id: Dict[str, int],
        *,
        smoothing: float = 0.1,
    ) -> "BigramLanguageModel":
        """Build and fit a model from sentences of word strings.

        Args:
            sentences: Iterable of word-string sequences.
            word_to_id: Vocabulary mapping (e.g. from the lexicon).
            smoothing: Additive smoothing constant.
        """
        model = cls(n_words=len(word_to_id), smoothing=smoothing)
        id_sentences = [
            [word_to_id[w] for w in sentence if w in word_to_id]
            for sentence in sentences
        ]
        return model.fit(id_sentences)
