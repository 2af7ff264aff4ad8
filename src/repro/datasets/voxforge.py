"""Synthetic speech corpus standing in for VoxForge.

The paper benchmarks its ASR service with ~35 000 transcribed VoxForge
utterances spanning ~3 500 speakers and many recording environments.  What
the evaluation needs from that corpus is (a) reference transcripts drawn
from a natural-ish language distribution and (b) per-utterance acoustic
difficulty that varies with speaker and recording conditions.

:class:`SyntheticSpeechCorpus` provides both.  It builds a pseudo-word
vocabulary, a topic-structured bigram text generator, a pool of speaker
profiles with different signal-to-noise ratios and speaking rates, and a set
of utterances (speaker + transcript).  The acoustic observations themselves
are synthesised downstream by :mod:`repro.asr.acoustic`, which keeps the
dataset layer free of any decoder details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import checks

__all__ = [
    "SpeakerProfile",
    "SyntheticSpeechCorpus",
    "SyntheticVoxForgeConfig",
    "Utterance",
    "make_voxforge_surrogate",
]

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "n", "s", "t", "k", "l", "r"]


@dataclass(frozen=True)
class SpeakerProfile:
    """A synthetic speaker / recording environment.

    Attributes:
        speaker_id: Stable identifier, e.g. ``"spk_0042"``.
        snr_db: Signal-to-noise ratio of the recording environment in dB.
            Lower values make the synthesised acoustic observations noisier
            and therefore harder to decode accurately.
        speaking_rate: Multiplier on phone durations (1.0 is nominal;
            faster speakers produce fewer frames per phone).
        accent_shift: Systematic bias added to the speaker's acoustic
            emissions, modelling accent / microphone colouration.
    """

    speaker_id: str
    snr_db: float
    speaking_rate: float
    accent_shift: float


@dataclass(frozen=True)
class Utterance:
    """A transcribed utterance: the unit of one ASR service request.

    Attributes:
        utterance_id: Stable identifier, unique within a corpus.
        speaker: The speaker who produced the utterance.
        words: Reference transcript as a tuple of vocabulary words.
    """

    utterance_id: str
    speaker: SpeakerProfile
    words: Tuple[str, ...]


@dataclass(frozen=True)
class SyntheticVoxForgeConfig:
    """Configuration of the synthetic speech corpus.

    The defaults produce a corpus that is small enough to decode with the
    pure-Python beam-search engine in seconds yet large enough to exhibit the
    paper's request-category structure.  Scale ``n_utterances`` up for
    higher-fidelity experiments.

    Attributes:
        n_utterances: Number of evaluation utterances to generate.
        n_speakers: Number of distinct speaker profiles.
        vocabulary_size: Number of pseudo-words in the vocabulary.
        min_words: Minimum transcript length.
        max_words: Maximum transcript length (inclusive).
        n_topics: Number of latent topics in the text generator; each topic
            prefers a different slice of the vocabulary, which gives the
            bigram language model something real to exploit.
        n_training_sentences: Number of sentences generated for language
            model training (disjoint from the evaluation utterances).
        snr_db_range: Range of speaker signal-to-noise ratios.
        seed: Seed for all corpus randomness.
    """

    n_utterances: int = 400
    n_speakers: int = 40
    vocabulary_size: int = 80
    min_words: int = 3
    max_words: int = 7
    n_topics: int = 4
    n_training_sentences: int = 600
    snr_db_range: Tuple[float, float] = (5.0, 17.0)
    seed: int = 20190324

    def __post_init__(self) -> None:
        checks.integer("n_utterances", self.n_utterances, minimum=1)
        checks.integer("n_speakers", self.n_speakers, minimum=1)
        checks.integer("vocabulary_size", self.vocabulary_size, minimum=10)
        checks.integer("min_words", self.min_words, minimum=1)
        checks.integer("max_words", self.max_words, minimum=self.min_words)
        checks.integer("n_topics", self.n_topics, minimum=1)
        low, high = self.snr_db_range
        checks.ordered("snr_db_range[0]", low, "snr_db_range[1]", high, strict=False)


class SyntheticSpeechCorpus:
    """Seeded synthetic replacement for the VoxForge evaluation corpus.

    Args:
        config: Corpus configuration; see :class:`SyntheticVoxForgeConfig`.

    The corpus exposes:

    * :attr:`vocabulary` -- the pseudo-word list (used to build the ASR
      lexicon),
    * :attr:`training_sentences` -- sentences for language-model training,
    * :attr:`utterances` -- the evaluation utterances,
    * :attr:`speakers` -- the speaker pool.
    """

    def __init__(self, config: SyntheticVoxForgeConfig | None = None) -> None:
        self.config = config or SyntheticVoxForgeConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.vocabulary: List[str] = self._build_vocabulary()
        self._topic_weights = self._build_topic_weights()
        self._transition = self._build_transition_matrix()
        self.speakers: List[SpeakerProfile] = self._build_speakers()
        self.training_sentences: List[Tuple[str, ...]] = [
            self._sample_sentence()
            for _ in range(self.config.n_training_sentences)
        ]
        self.utterances: List[Utterance] = self._build_utterances()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_vocabulary(self) -> List[str]:
        words: List[str] = []
        seen = set()
        while len(words) < self.config.vocabulary_size:
            n_syllables = int(self._rng.integers(1, 4))
            syllables = []
            for _ in range(n_syllables):
                onset = _ONSETS[self._rng.integers(0, len(_ONSETS))]
                nucleus = _NUCLEI[self._rng.integers(0, len(_NUCLEI))]
                coda = _CODAS[self._rng.integers(0, len(_CODAS))]
                syllables.append(onset + nucleus + coda)
            word = "".join(syllables)
            if word not in seen:
                seen.add(word)
                words.append(word)
        return words

    def _build_topic_weights(self) -> np.ndarray:
        """Per-topic word preference matrix of shape (topics, vocab)."""
        vocab = len(self.vocabulary)
        weights = self._rng.gamma(
            0.3, 1.0, size=(self.config.n_topics, vocab)
        )
        weights /= weights.sum(axis=1, keepdims=True)
        return weights

    def _build_transition_matrix(self) -> np.ndarray:
        """Word bigram transition matrix mixing topical and uniform mass."""
        vocab = len(self.vocabulary)
        topic_of_word = self._rng.integers(
            0, self.config.n_topics, size=vocab
        )
        transition = np.empty((vocab, vocab))
        for w in range(vocab):
            topical = self._topic_weights[topic_of_word[w]]
            transition[w] = 0.85 * topical + 0.15 / vocab
            transition[w] /= transition[w].sum()
        return transition

    def _build_speakers(self) -> List[SpeakerProfile]:
        low, high = self.config.snr_db_range
        speakers = []
        for i in range(self.config.n_speakers):
            speakers.append(
                SpeakerProfile(
                    speaker_id=f"spk_{i:04d}",
                    snr_db=float(self._rng.uniform(low, high)),
                    speaking_rate=float(self._rng.uniform(0.85, 1.2)),
                    accent_shift=float(self._rng.normal(0.0, 0.15)),
                )
            )
        return speakers

    def _sample_sentence(self) -> Tuple[str, ...]:
        length = int(
            self._rng.integers(self.config.min_words, self.config.max_words + 1)
        )
        vocab = len(self.vocabulary)
        words = [int(self._rng.integers(0, vocab))]
        for _ in range(length - 1):
            probs = self._transition[words[-1]]
            words.append(int(self._rng.choice(vocab, p=probs)))
        return tuple(self.vocabulary[w] for w in words)

    def _build_utterances(self) -> List[Utterance]:
        utterances = []
        for i in range(self.config.n_utterances):
            speaker = self.speakers[int(self._rng.integers(0, len(self.speakers)))]
            utterances.append(
                Utterance(
                    utterance_id=f"utt_{i:06d}",
                    speaker=speaker,
                    words=self._sample_sentence(),
                )
            )
        return utterances

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def __getitem__(self, index: int) -> Utterance:
        return self.utterances[index]


def make_voxforge_surrogate(
    n_utterances: int = 400, *, seed: int = 20190324, **overrides
) -> SyntheticSpeechCorpus:
    """Convenience constructor for the VoxForge surrogate corpus.

    Args:
        n_utterances: Number of evaluation utterances.
        seed: Corpus seed.
        **overrides: Any other :class:`SyntheticVoxForgeConfig` field.
    """
    config = SyntheticVoxForgeConfig(
        n_utterances=n_utterances, seed=seed, **overrides
    )
    return SyntheticSpeechCorpus(config)
