"""Tests for the decoding graph."""

import numpy as np
import pytest

from repro.asr.hmm import DecodingGraph
from repro.asr.language_model import START_CONTEXT, BigramLanguageModel
from repro.asr.lexicon import Lexicon


@pytest.fixture()
def graph():
    lexicon = Lexicon(["bado", "kine", "losu"])
    model = BigramLanguageModel(n_words=3)
    model.fit([[0, 1, 2], [0, 1], [2, 0, 1]])
    return DecodingGraph(lexicon, model, lm_weight=1.0, word_insertion_penalty=0.5)


class TestConstruction:
    def test_rejects_unfitted_language_model(self):
        lexicon = Lexicon(["bado"])
        with pytest.raises(ValueError):
            DecodingGraph(lexicon, BigramLanguageModel(n_words=1))

    def test_rejects_vocabulary_mismatch(self):
        lexicon = Lexicon(["bado", "kine"])
        model = BigramLanguageModel(n_words=3)
        model.fit([[0, 1, 2]])
        with pytest.raises(ValueError):
            DecodingGraph(lexicon, model)

    def test_rejects_negative_lm_weight(self):
        lexicon = Lexicon(["bado"])
        model = BigramLanguageModel(n_words=1)
        model.fit([[0]])
        with pytest.raises(ValueError):
            DecodingGraph(lexicon, model, lm_weight=-1.0)


class TestTopology:
    def test_word_lengths(self, graph):
        assert graph.word_length(0) == len(graph.lexicon.pronunciation("bado"))

    def test_final_position(self, graph):
        last = graph.word_length(0) - 1
        assert graph.is_final_position(0, last)
        assert not graph.is_final_position(0, 0)

    def test_first_phone_ids_align(self, graph):
        for word_id in range(graph.lexicon.n_words):
            assert graph.first_phone_ids[word_id] == graph.phones_of(word_id)[0]


class TestLanguageModelQueries:
    def test_entry_scores_are_weighted_lm_minus_penalty(self, graph):
        raw_lm = graph.language_model.successor_log_probs(0)
        assert np.allclose(graph.entry_score_vector(0), raw_lm - 0.5)

    def test_entry_score_vector_cached(self, graph):
        assert graph.entry_score_vector(0) is graph.entry_score_vector(0)

    def test_entry_score_vector_start_context(self, graph):
        vector = graph.entry_score_vector(START_CONTEXT)
        assert vector.shape == (graph.lexicon.n_words,)

    def test_entry_scores_scale_with_weight(self):
        lexicon = Lexicon(["bado", "kine"])
        model = BigramLanguageModel(n_words=2)
        model.fit([[0, 1], [0, 1]])
        light = DecodingGraph(lexicon, model, lm_weight=0.5, word_insertion_penalty=0.0)
        heavy = DecodingGraph(lexicon, model, lm_weight=2.0, word_insertion_penalty=0.0)
        assert np.allclose(heavy.entry_score_vector(0), 4 * light.entry_score_vector(0))
