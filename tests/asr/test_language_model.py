"""Tests for the bigram language model."""

import numpy as np
import pytest

from repro.asr.language_model import START_CONTEXT, BigramLanguageModel


@pytest.fixture()
def fitted_model():
    model = BigramLanguageModel(n_words=4, smoothing=0.1)
    # word 0 is usually followed by word 1; word 2 starts most sentences.
    sentences = [[2, 0, 1], [2, 0, 1, 3], [0, 1], [2, 3, 0, 1]]
    return model.fit(sentences)


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BigramLanguageModel(0)
        with pytest.raises(ValueError):
            BigramLanguageModel(5, smoothing=0.0)

    def test_unfitted_queries_raise(self):
        model = BigramLanguageModel(3)
        assert not model.is_fitted
        with pytest.raises(RuntimeError):
            model.successor_log_probs(0)


class TestFit:
    def test_probabilities_normalise(self, fitted_model):
        for context in [START_CONTEXT, 0, 1, 2, 3]:
            probs = np.exp(fitted_model.successor_log_probs(context))
            assert probs.sum() == pytest.approx(1.0)

    def test_observed_bigram_more_likely(self, fitted_model):
        after_0 = fitted_model.successor_log_probs(0)
        assert after_0[1] > after_0[2]

    def test_start_distribution_reflects_data(self, fitted_model):
        at_start = fitted_model.successor_log_probs(START_CONTEXT)
        assert at_start[2] > at_start[3]

    def test_successor_log_probs_are_copies(self, fitted_model):
        fitted_model.successor_log_probs(0)[:] = 0.0
        assert np.exp(fitted_model.successor_log_probs(0)).sum() == pytest.approx(1.0)

    def test_rejects_out_of_vocabulary(self):
        model = BigramLanguageModel(3)
        with pytest.raises(ValueError):
            model.fit([[0, 7]])

    def test_empty_sentences_ignored(self):
        model = BigramLanguageModel(3).fit([[], [0, 1]])
        assert model.is_fitted


class TestFromWordSentences:
    def test_builds_and_fits(self):
        vocab = {"a": 0, "b": 1}
        model = BigramLanguageModel.from_word_sentences(
            [["a", "b"], ["a", "a"]], vocab
        )
        assert model.is_fitted
        assert model.n_words == 2

    def test_skips_oov_words(self):
        vocab = {"a": 0, "b": 1}
        model = BigramLanguageModel.from_word_sentences([["a", "zzz", "b"]], vocab)
        assert model.is_fitted
