"""Tests for the beam-search decoder."""

import numpy as np
import pytest

from repro.asr.acoustic import AcousticFrontEnd, AcousticObservation
from repro.asr.beam_search import BeamSearchConfig, BeamSearchDecoder
from repro.asr.hmm import DecodingGraph
from repro.asr.language_model import BigramLanguageModel
from repro.asr.lexicon import Lexicon
from repro.asr.wer import word_error_rate
from repro.datasets.voxforge import SpeakerProfile, Utterance


@pytest.fixture(scope="module")
def small_world():
    """A tiny vocabulary, uniform-ish LM and clean acoustic front-end."""
    vocabulary = ["bado", "kine", "losu", "meti", "rafu", "sove"]
    lexicon = Lexicon(vocabulary)
    model = BigramLanguageModel(n_words=len(vocabulary), smoothing=0.5)
    rng = np.random.default_rng(0)
    sentences = [list(rng.integers(0, len(vocabulary), size=4)) for _ in range(100)]
    model.fit(sentences)
    graph = DecodingGraph(lexicon, model)
    front_end = AcousticFrontEnd(lexicon, frames_per_phone=3)
    return lexicon, graph, front_end


def _utterance(words, uid, snr_db=20.0):
    speaker = SpeakerProfile(
        speaker_id="spk_clean", snr_db=snr_db, speaking_rate=1.0, accent_shift=0.05
    )
    return Utterance(utterance_id=uid, speaker=speaker, words=tuple(words))


class TestConfigValidation:
    def test_rejects_bad_max_active(self):
        with pytest.raises(ValueError):
            BeamSearchConfig(max_active=0)

    def test_rejects_bad_beam(self):
        with pytest.raises(ValueError):
            BeamSearchConfig(beam=0.0)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValueError):
            BeamSearchConfig(scope="galaxy")

    def test_rejects_bad_breadth(self):
        with pytest.raises(ValueError):
            BeamSearchConfig(lm_breadth=0)


class TestDecoding:
    def test_clean_utterance_decoded_exactly(self, small_world):
        lexicon, graph, front_end = small_world
        config = BeamSearchConfig(name="wide", max_active=64, beam=12.0, lm_breadth=None)
        decoder = BeamSearchDecoder(graph, config)
        utterance = _utterance(["bado", "kine", "losu"], "clean_1", snr_db=25.0)
        result = decoder.decode(front_end.observe(utterance))
        assert result.words == utterance.words
        assert result.n_frames > 0
        assert result.n_expansions > 0
        assert result.config_name == "wide"

    def test_rejects_empty_observation(self, small_world):
        _, graph, _ = small_world
        decoder = BeamSearchDecoder(graph, BeamSearchConfig())
        empty = AcousticObservation(
            utterance_id="empty",
            log_likelihoods=np.zeros((0, graph.lexicon.n_phones)),
            frame_phones=(),
        )
        with pytest.raises(ValueError):
            decoder.decode(empty)

    def test_wider_search_does_more_work(self, small_world):
        _, graph, front_end = small_world
        utterance = _utterance(["bado", "kine", "losu", "meti"], "work_1", snr_db=8.0)
        observation = front_end.observe(utterance)
        narrow = BeamSearchDecoder(
            graph, BeamSearchConfig(max_active=6, beam=4.0, lm_breadth=2)
        ).decode(observation)
        wide = BeamSearchDecoder(
            graph, BeamSearchConfig(max_active=64, beam=12.0, lm_breadth=None)
        ).decode(observation)
        assert wide.n_expansions > narrow.n_expansions

    def test_wider_search_not_less_accurate_on_average(self, small_world):
        _, graph, front_end = small_world
        narrow_cfg = BeamSearchConfig(max_active=5, beam=3.0, lm_breadth=2)
        wide_cfg = BeamSearchConfig(max_active=64, beam=12.0, lm_breadth=None)
        narrow_wer, wide_wer = [], []
        rng = np.random.default_rng(3)
        for i in range(12):
            words = [graph.lexicon.words[w] for w in rng.integers(0, graph.lexicon.n_words, 4)]
            utterance = _utterance(words, f"avg_{i}", snr_db=7.0)
            observation = front_end.observe(utterance)
            narrow_wer.append(
                word_error_rate(
                    BeamSearchDecoder(graph, narrow_cfg).decode(observation).words,
                    words,
                )
            )
            wide_wer.append(
                word_error_rate(
                    BeamSearchDecoder(graph, wide_cfg).decode(observation).words,
                    words,
                )
            )
        assert np.mean(wide_wer) <= np.mean(narrow_wer)

    def test_peak_active_respects_max_active(self, small_world):
        _, graph, front_end = small_world
        config = BeamSearchConfig(max_active=7, beam=20.0, lm_breadth=None)
        utterance = _utterance(["bado", "kine", "losu"], "peak_1", snr_db=5.0)
        result = BeamSearchDecoder(graph, config).decode(front_end.observe(utterance))
        assert result.peak_active <= 7

    def test_deterministic(self, small_world):
        _, graph, front_end = small_world
        config = BeamSearchConfig(max_active=16, beam=8.0, lm_breadth=4)
        utterance = _utterance(["rafu", "sove"], "det_1")
        observation = front_end.observe(utterance)
        a = BeamSearchDecoder(graph, config).decode(observation)
        b = BeamSearchDecoder(graph, config).decode(observation)
        assert a.words == b.words
        assert a.log_score == b.log_score
        assert a.n_expansions == b.n_expansions

    def test_score_margin_non_negative(self, small_world):
        _, graph, front_end = small_world
        config = BeamSearchConfig(max_active=32, beam=10.0, lm_breadth=None)
        utterance = _utterance(["meti", "bado"], "margin_1")
        result = BeamSearchDecoder(graph, config).decode(front_end.observe(utterance))
        assert result.score_margin >= 0.0

    @pytest.mark.parametrize("scope", ["local", "global", "network"])
    def test_all_scopes_produce_hypotheses(self, small_world, scope):
        _, graph, front_end = small_world
        config = BeamSearchConfig(max_active=24, beam=8.0, lm_breadth=6, scope=scope)
        utterance = _utterance(["bado", "kine"], f"scope_{scope}")
        result = BeamSearchDecoder(graph, config).decode(front_end.observe(utterance))
        assert len(result.words) >= 1
