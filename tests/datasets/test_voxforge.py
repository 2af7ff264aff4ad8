"""Tests for the synthetic VoxForge surrogate corpus."""

import pytest

from repro.datasets.voxforge import (
    SyntheticSpeechCorpus,
    SyntheticVoxForgeConfig,
    make_voxforge_surrogate,
)


class TestConfigValidation:
    def test_rejects_zero_utterances(self):
        with pytest.raises(ValueError):
            SyntheticVoxForgeConfig(n_utterances=0)

    def test_rejects_bad_word_bounds(self):
        with pytest.raises(ValueError):
            SyntheticVoxForgeConfig(min_words=5, max_words=3)

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            SyntheticVoxForgeConfig(vocabulary_size=5)

    def test_rejects_inverted_snr_range(self):
        with pytest.raises(ValueError):
            SyntheticVoxForgeConfig(snr_db_range=(10.0, 2.0))

    @pytest.mark.parametrize(
        "kwargs,match",
        [({"n_speakers": 0}, "n_speakers"), ({"n_topics": 0}, "n_topics")],
    )
    def test_rejects_empty_speaker_or_topic_pool(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SyntheticVoxForgeConfig(**kwargs)


class TestCorpusStructure:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_voxforge_surrogate(n_utterances=50, seed=3, n_speakers=6)

    def test_sizes(self, corpus):
        assert len(corpus) == 50
        assert len(corpus.speakers) == 6
        assert len(corpus.vocabulary) == corpus.config.vocabulary_size

    def test_vocabulary_unique(self, corpus):
        assert len(set(corpus.vocabulary)) == len(corpus.vocabulary)

    def test_transcripts_use_vocabulary(self, corpus):
        vocab = set(corpus.vocabulary)
        for utterance in corpus:
            assert set(utterance.words) <= vocab
            assert (
                corpus.config.min_words
                <= len(utterance.words)
                <= corpus.config.max_words
            )

    def test_utterance_ids_unique(self, corpus):
        ids = [u.utterance_id for u in corpus]
        assert len(set(ids)) == len(ids)

    def test_speakers_within_snr_range(self, corpus):
        low, high = corpus.config.snr_db_range
        for speaker in corpus.speakers:
            assert low <= speaker.snr_db <= high

    def test_training_sentences_disjoint_object(self, corpus):
        assert len(corpus.training_sentences) == corpus.config.n_training_sentences


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = make_voxforge_surrogate(n_utterances=20, seed=9)
        b = make_voxforge_surrogate(n_utterances=20, seed=9)
        assert a.vocabulary == b.vocabulary
        assert [u.words for u in a] == [u.words for u in b]

    def test_different_seed_different_corpus(self):
        a = make_voxforge_surrogate(n_utterances=20, seed=9)
        b = make_voxforge_surrogate(n_utterances=20, seed=10)
        assert [u.words for u in a] != [u.words for u in b]
