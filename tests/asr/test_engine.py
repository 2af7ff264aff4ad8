"""Tests for the service-facing ASR engine and versions."""

import pytest

from repro.asr import ASR_VERSIONS, ASREngine
from repro.asr.confidence import hypothesis_confidence
from repro.asr.beam_search import DecodeResult


@pytest.fixture(scope="module")
def engine(request):
    corpus = request.getfixturevalue("speech_corpus")
    return ASREngine.from_corpus(corpus)


class TestVersionsTable:
    def test_seven_versions(self):
        assert len(ASR_VERSIONS) == 7
        assert list(ASR_VERSIONS)[0] == "asr_v1"
        assert list(ASR_VERSIONS)[-1] == "asr_v7"
        assert all(cfg.name == name for name, cfg in ASR_VERSIONS.items())

    def test_versions_increase_in_width(self):
        for field in ("max_active", "lm_breadth", "beam"):
            widths = [getattr(cfg, field) for cfg in ASR_VERSIONS.values()]
            assert widths == sorted(widths)


class TestEngine:
    def test_from_corpus_builds_consistent_components(self, speech_corpus, engine):
        assert engine.lexicon.n_words == len(speech_corpus.vocabulary)
        assert engine.language_model.is_fitted

    def test_transcribe_reports_all_fields(self, speech_corpus, engine):
        utterance = speech_corpus[0]
        result = engine.transcribe(utterance, ASR_VERSIONS["asr_v3"])
        assert result.utterance_id == utterance.utterance_id
        assert result.reference == utterance.words
        assert result.config_name == "asr_v3"
        assert result.wer >= 0.0
        assert 0.0 <= result.confidence <= 1.0
        assert result.latency_s > 0.0
        assert result.n_expansions > 0

    def test_latency_model_monotone_in_work(self, engine):
        fake_fast = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-1.0, runner_up_score=-2.0,
            n_expansions=100, n_frames=10, peak_active=5, config_name="a",
        )
        fake_slow = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-1.0, runner_up_score=-2.0,
            n_expansions=1000, n_frames=10, peak_active=5, config_name="a",
        )
        assert engine.latency_of(fake_slow) > engine.latency_of(fake_fast)

    def test_observation_cache_reused(self, speech_corpus, engine):
        utterance = speech_corpus[1]
        assert engine.observation_for(utterance) is engine.observation_for(utterance)

    def test_constructor_validates_latency_constants(self, speech_corpus):
        with pytest.raises(ValueError):
            ASREngine.from_corpus(speech_corpus, seconds_per_expansion=0.0)


class TestConfidence:
    def test_confidence_bounds(self):
        result = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-30.0, runner_up_score=-31.0,
            n_expansions=10, n_frames=15, peak_active=3, config_name="c",
        )
        assert 0.0 <= hypothesis_confidence(result) <= 1.0

    def test_no_hypothesis_zero_confidence(self):
        result = DecodeResult(
            word_ids=(), words=(), log_score=float("-inf"),
            runner_up_score=float("-inf"), n_expansions=0, n_frames=5,
            peak_active=0, config_name="c",
        )
        assert hypothesis_confidence(result) == 0.0

    def test_better_fit_higher_confidence(self):
        poor = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-60.0, runner_up_score=-60.5,
            n_expansions=10, n_frames=20, peak_active=3, config_name="c",
        )
        good = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-20.0, runner_up_score=-40.0,
            n_expansions=10, n_frames=20, peak_active=3, config_name="c",
        )
        assert hypothesis_confidence(good) > hypothesis_confidence(poor)

    def test_rejects_negative_weights(self):
        result = DecodeResult(
            word_ids=(0,), words=("x",), log_score=-1.0, runner_up_score=-2.0,
            n_expansions=1, n_frames=1, peak_active=1, config_name="c",
        )
        with pytest.raises(ValueError):
            hypothesis_confidence(result, score_weight=-1.0)


class TestTradeOffAcrossVersions:
    def test_most_accurate_version_beats_fastest(self, asr_measurements):
        fastest = asr_measurements.fastest_version()
        most_accurate = asr_measurements.most_accurate_version()
        assert asr_measurements.mean_error(most_accurate) < asr_measurements.mean_error(
            fastest
        )
        assert asr_measurements.mean_latency(
            most_accurate
        ) > asr_measurements.mean_latency(fastest)
