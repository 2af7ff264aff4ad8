"""Synthetic acoustic front-end.

Real ASR engines extract per-frame features from audio and feed them to an
acoustic neural network that emits per-frame phone posteriors.  We do not
have audio, so this module synthesises the *output* of that front-end
directly: for a given utterance it produces a ``(frames, phones)`` matrix of
log-likelihoods whose quality depends on the speaker's recording conditions.

The synthesis is seeded per utterance (from the corpus seed and the
utterance id), so the same utterance always produces the same observation
matrix regardless of which service version decodes it — exactly the property
the per-request category analysis (Fig. 2) relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.asr.lexicon import Lexicon
from repro.datasets.voxforge import Utterance

__all__ = ["AcousticFrontEnd", "AcousticObservation"]


@dataclass(frozen=True)
class AcousticObservation:
    """Per-frame acoustic evidence for one utterance.

    Attributes:
        utterance_id: Identifier of the utterance the evidence belongs to.
        log_likelihoods: Array of shape ``(n_frames, n_phones)`` holding the
            log-likelihood of each phone at each frame.
        frame_phones: The true phone id of every frame (used only for
            diagnostics/tests, never by the decoder).
        n_frames: Number of frames.
    """

    utterance_id: str
    log_likelihoods: np.ndarray
    frame_phones: Tuple[int, ...]

    @property
    def n_frames(self) -> int:
        """Number of acoustic frames."""
        return int(self.log_likelihoods.shape[0])


class AcousticFrontEnd:
    """Synthesises per-frame phone log-likelihoods for utterances.

    Args:
        lexicon: Pronunciation lexicon (defines the phone inventory and the
            expansion of transcripts into phone sequences).
        frames_per_phone: Nominal number of frames each phone occupies
            before speaker-rate scaling.
        emission_scale: Sharpness of the synthetic log-likelihoods; larger
            values make frames more peaked around the true phone.
        base_seed: Seed mixed with the utterance id so observations are
            reproducible per utterance.
    """

    def __init__(
        self,
        lexicon: Lexicon,
        *,
        frames_per_phone: int = 3,
        emission_scale: float = 1.0,
        base_seed: int = 7,
    ) -> None:
        if frames_per_phone < 1:
            raise ValueError("frames_per_phone must be at least 1")
        if emission_scale <= 0.0:
            raise ValueError("emission_scale must be positive")
        self.lexicon = lexicon
        self.frames_per_phone = frames_per_phone
        self.emission_scale = emission_scale
        self.base_seed = base_seed

    # ------------------------------------------------------------------
    # synthesis
    # ------------------------------------------------------------------
    def _utterance_rng(self, utterance: Utterance) -> np.random.Generator:
        digest = zlib.crc32(utterance.utterance_id.encode("utf-8"))
        return np.random.default_rng((self.base_seed << 32) ^ digest)

    def _frame_sequence(
        self, utterance: Utterance, rng: np.random.Generator
    ) -> List[int]:
        """Expand the transcript into the per-frame true-phone sequence."""
        phone_ids = self.lexicon.transcript_phone_ids(utterance.words)
        rate = utterance.speaker.speaking_rate
        frames: List[int] = []
        for phone in phone_ids:
            jitter = rng.uniform(0.75, 1.35)
            duration = max(1, int(round(self.frames_per_phone * jitter / rate)))
            frames.extend([phone] * duration)
        return frames

    def observe(self, utterance: Utterance) -> AcousticObservation:
        """Synthesise the acoustic observation matrix for an utterance.

        The emission for a frame with true phone ``p`` is a noisy one-hot
        vector whose peak height scales with the speaker's linear SNR, plus
        a per-speaker accent bias and white noise, passed through a
        log-softmax.  Lower SNR therefore yields flatter, more confusable
        per-frame evidence.
        """
        rng = self._utterance_rng(utterance)
        frame_phones = self._frame_sequence(utterance, rng)
        n_frames = len(frame_phones)
        n_phones = self.lexicon.n_phones

        snr_linear = 10.0 ** (utterance.speaker.snr_db / 20.0)
        accent = rng.normal(0.0, abs(utterance.speaker.accent_shift), size=n_phones)

        scores = rng.normal(0.0, 1.0, size=(n_frames, n_phones)) + accent
        scores[np.arange(n_frames), frame_phones] += snr_linear
        scores *= self.emission_scale

        log_likelihoods = scores - _logsumexp_rows(scores)
        return AcousticObservation(
            utterance_id=utterance.utterance_id,
            log_likelihoods=log_likelihoods,
            frame_phones=tuple(frame_phones),
        )


def _logsumexp_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp, returned as a column for broadcasting."""
    peak = scores.max(axis=1, keepdims=True)
    return peak + np.log(np.exp(scores - peak).sum(axis=1, keepdims=True))
