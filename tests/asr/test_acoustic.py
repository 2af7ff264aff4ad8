"""Tests for the synthetic acoustic front-end."""

import numpy as np
import pytest

from repro.asr.acoustic import AcousticFrontEnd
from repro.asr.lexicon import Lexicon
from repro.datasets.voxforge import SpeakerProfile, Utterance


def _speaker(snr_db: float, rate: float = 1.0) -> SpeakerProfile:
    return SpeakerProfile(
        speaker_id=f"spk_{snr_db}", snr_db=snr_db, speaking_rate=rate, accent_shift=0.1
    )


def _utterance(words, speaker, uid="utt_test") -> Utterance:
    return Utterance(utterance_id=uid, speaker=speaker, words=tuple(words))


@pytest.fixture()
def lexicon():
    return Lexicon(["bado", "kine", "losu", "meti"])


class TestValidation:
    def test_rejects_bad_frames_per_phone(self, lexicon):
        with pytest.raises(ValueError):
            AcousticFrontEnd(lexicon, frames_per_phone=0)

    def test_rejects_bad_scale(self, lexicon):
        with pytest.raises(ValueError):
            AcousticFrontEnd(lexicon, emission_scale=0.0)


def _argmax_accuracy(obs):
    """Fraction of frames whose arg-max phone is the true phone."""
    return float((np.argmax(obs.log_likelihoods, axis=1) == obs.frame_phones).mean())


class TestObservation:
    def test_shapes_and_normalisation(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        obs = front_end.observe(_utterance(["bado", "kine"], _speaker(12.0)))
        assert obs.log_likelihoods.shape == (obs.n_frames, lexicon.n_phones)
        assert len(obs.frame_phones) == obs.n_frames
        # log-softmax rows must sum to one in probability space
        probs = np.exp(obs.log_likelihoods).sum(axis=1)
        assert np.allclose(probs, 1.0)

    def test_deterministic_per_utterance(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        utterance = _utterance(["bado"], _speaker(10.0))
        a = front_end.observe(utterance)
        b = front_end.observe(utterance)
        assert np.array_equal(a.log_likelihoods, b.log_likelihoods)

    def test_different_utterance_ids_differ(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        a = front_end.observe(_utterance(["bado"], _speaker(10.0), uid="u1"))
        b = front_end.observe(_utterance(["bado"], _speaker(10.0), uid="u2"))
        assert not np.array_equal(a.log_likelihoods, b.log_likelihoods)

    def test_higher_snr_cleaner_frames(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        noisy = front_end.observe(_utterance(["bado", "kine"], _speaker(0.0), uid="n"))
        clean = front_end.observe(_utterance(["bado", "kine"], _speaker(25.0), uid="c"))
        assert _argmax_accuracy(clean) > _argmax_accuracy(noisy)

    def test_faster_speaker_fewer_frames(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        slow = front_end.observe(
            _utterance(["bado", "kine"], _speaker(10.0, rate=0.85), uid="slow")
        )
        fast = front_end.observe(
            _utterance(["bado", "kine"], _speaker(10.0, rate=1.3), uid="fast")
        )
        assert fast.n_frames < slow.n_frames

    def test_frame_phones_match_lexicon_expansion(self, lexicon):
        front_end = AcousticFrontEnd(lexicon)
        obs = front_end.observe(_utterance(["bado"], _speaker(15.0)))
        expected_phones = set(lexicon.pronunciation_ids("bado"))
        assert set(obs.frame_phones) <= expected_phones
