"""Decoding graph: the composition of lexicon and language model.

The paper describes the recogniser's search space as a hidden Markov model
built from an acoustic model, a pronunciation lexicon and a language model.
For decoding purposes the graph is fully described by:

* per-word phone sequences (from the lexicon),
* word-to-word transition scores (from the language model), and
* within-word topology (left-to-right phones with self-loops).

:class:`DecodingGraph` packages those pieces behind the queries the beam
search needs: word topology and the weighted LM entry scores its
word-exit expansion reads.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.asr.language_model import BigramLanguageModel
from repro.asr.lexicon import Lexicon

__all__ = ["DecodingGraph"]


class DecodingGraph:
    """Search-space view combining the lexicon and the language model.

    Args:
        lexicon: Pronunciation lexicon.
        language_model: Fitted bigram language model over the same
            vocabulary.
        lm_weight: Scale factor applied to language-model log probabilities
            when combined with acoustic scores (the usual LM weight of HMM
            decoders).
        word_insertion_penalty: Additive penalty applied at each word exit;
            discourages the decoder from inserting many short words.

    Raises:
        ValueError: If the model and lexicon vocabulary sizes disagree or
            the language model is not fitted.
    """

    def __init__(
        self,
        lexicon: Lexicon,
        language_model: BigramLanguageModel,
        *,
        lm_weight: float = 1.0,
        word_insertion_penalty: float = 0.5,
    ) -> None:
        if not language_model.is_fitted:
            raise ValueError("language model must be fitted before graph construction")
        if language_model.n_words != lexicon.n_words:
            raise ValueError(
                "lexicon and language model cover different vocabularies: "
                f"{lexicon.n_words} vs {language_model.n_words} words"
            )
        if lm_weight < 0.0:
            raise ValueError("lm_weight must be non-negative")
        self.lexicon = lexicon
        self.language_model = language_model
        self.lm_weight = lm_weight
        self.word_insertion_penalty = word_insertion_penalty
        self._pronunciations: List[Tuple[int, ...]] = [
            lexicon.phones_of_word_id(w) for w in range(lexicon.n_words)
        ]
        self._first_phone_ids = np.array(
            [phones[0] for phones in self._pronunciations], dtype=int
        )
        self._entry_score_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    def phones_of(self, word_id: int) -> Tuple[int, ...]:
        """Phone-id sequence of a word."""
        return self._pronunciations[word_id]

    def word_length(self, word_id: int) -> int:
        """Number of phones in a word."""
        return len(self._pronunciations[word_id])

    def is_final_position(self, word_id: int, position: int) -> bool:
        """Whether ``position`` is the last phone of ``word_id``."""
        return position == self.word_length(word_id) - 1

    # ------------------------------------------------------------------
    # language-model queries
    # ------------------------------------------------------------------
    def entry_score_vector(self, context: int) -> np.ndarray:
        """Vector of weighted LM entry scores for every word given ``context``.

        Cached per context; used by the decoder's word-exit expansion to
        combine language-model and acoustic look-ahead evidence in one
        vectorised step.
        """
        cached = self._entry_score_cache.get(context)
        if cached is None:
            log_probs = self.language_model.successor_log_probs(context)
            cached = self.lm_weight * log_probs - self.word_insertion_penalty
            self._entry_score_cache[context] = cached
        return cached

    @property
    def first_phone_ids(self) -> np.ndarray:
        """Phone id of the first phone of every word (word-id order)."""
        return self._first_phone_ids
