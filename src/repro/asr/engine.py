"""Service-facing ASR engine.

:class:`ASREngine` wires the acoustic front-end, decoding graph and beam
search together and exposes the one call a service node needs:
"transcribe this utterance under this heuristic configuration and tell me
what it cost".  The engine reports both the hypothesis quality (WER against
the reference transcript) and the decoder's work, converted to a modelled
latency so experiments are deterministic and hardware-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.asr.acoustic import AcousticFrontEnd, AcousticObservation
from repro.asr.beam_search import BeamSearchConfig, BeamSearchDecoder, DecodeResult
from repro.asr.confidence import hypothesis_confidence
from repro.asr.hmm import DecodingGraph
from repro.asr.language_model import BigramLanguageModel
from repro import checks
from repro.asr.lexicon import Lexicon
from repro.asr.wer import word_error_rate
from repro.datasets.voxforge import SyntheticSpeechCorpus, Utterance

__all__ = ["ASREngine", "TranscriptionResult"]


@dataclass(frozen=True)
class TranscriptionResult:
    """Everything a service version reports for one transcription request.

    Attributes:
        utterance_id: Identifier of the processed utterance.
        config_name: Heuristic configuration used.
        hypothesis: Hypothesised word sequence.
        reference: Reference word sequence.
        wer: Word error rate of the hypothesis against the reference.
        confidence: Decoder confidence in ``[0, 1]``.
        n_expansions: Beam-search work (tokens created).
        n_frames: Acoustic frames consumed.
        latency_s: Modelled single-node processing latency in seconds.
    """

    utterance_id: str
    config_name: str
    hypothesis: Tuple[str, ...]
    reference: Tuple[str, ...]
    wer: float
    confidence: float
    n_expansions: int
    n_frames: int
    latency_s: float


class ASREngine:
    """End-to-end ASR engine over a synthetic speech corpus.

    Args:
        lexicon: Pronunciation lexicon.
        language_model: Fitted bigram language model over the same
            vocabulary.
        front_end: Acoustic front-end that turns utterances into per-frame
            log-likelihoods.
        lm_weight: Language-model weight of the decoding graph.
        word_insertion_penalty: Word insertion penalty of the decoding graph.
        seconds_per_expansion: Modelled cost of one beam-search token
            expansion; together with ``seconds_per_frame`` this converts
            search work to latency.
        seconds_per_frame: Modelled fixed per-frame cost (feature extraction
            and acoustic scoring).
    """

    def __init__(
        self,
        lexicon: Lexicon,
        language_model: BigramLanguageModel,
        front_end: AcousticFrontEnd,
        *,
        lm_weight: float = 1.0,
        word_insertion_penalty: float = 0.5,
        seconds_per_expansion: float = 40e-6,
        seconds_per_frame: float = 1.2e-3,
    ) -> None:
        checks.positive("seconds_per_expansion", seconds_per_expansion)
        checks.positive("seconds_per_frame", seconds_per_frame)
        self.lexicon = lexicon
        self.language_model = language_model
        self.front_end = front_end
        self.graph = DecodingGraph(
            lexicon,
            language_model,
            lm_weight=lm_weight,
            word_insertion_penalty=word_insertion_penalty,
        )
        self.seconds_per_expansion = seconds_per_expansion
        self.seconds_per_frame = seconds_per_frame
        self._observation_cache: Dict[str, AcousticObservation] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_corpus(
        cls,
        corpus: SyntheticSpeechCorpus,
        *,
        lm_smoothing: float = 0.1,
        **engine_kwargs,
    ) -> "ASREngine":
        """Build an engine whose lexicon and LM are fit to a corpus.

        Args:
            corpus: The synthetic speech corpus; its vocabulary defines the
                lexicon and its training sentences fit the language model.
            lm_smoothing: Additive smoothing for the language model.
            **engine_kwargs: Forwarded to the :class:`ASREngine` constructor.
        """
        lexicon = Lexicon(corpus.vocabulary)
        word_to_id = {w: i for i, w in enumerate(corpus.vocabulary)}
        language_model = BigramLanguageModel.from_word_sentences(
            corpus.training_sentences, word_to_id, smoothing=lm_smoothing
        )
        front_end = AcousticFrontEnd(lexicon, base_seed=corpus.config.seed)
        return cls(lexicon, language_model, front_end, **engine_kwargs)

    # ------------------------------------------------------------------
    # transcription
    # ------------------------------------------------------------------
    def observation_for(self, utterance: Utterance) -> AcousticObservation:
        """Return (and cache) the acoustic observation of an utterance.

        Caching matters because the limitation study decodes every utterance
        under every service version; the acoustic evidence must be identical
        across versions and is expensive to regenerate.
        """
        cached = self._observation_cache.get(utterance.utterance_id)
        if cached is None:
            cached = self.front_end.observe(utterance)
            self._observation_cache[utterance.utterance_id] = cached
        return cached

    def latency_of(self, decode: DecodeResult) -> float:
        """Convert decoder work into a modelled latency in seconds."""
        return (
            decode.n_expansions * self.seconds_per_expansion
            + decode.n_frames * self.seconds_per_frame
        )

    def transcribe(
        self, utterance: Utterance, config: BeamSearchConfig
    ) -> TranscriptionResult:
        """Transcribe one utterance under one heuristic configuration."""
        observation = self.observation_for(utterance)
        decoder = BeamSearchDecoder(self.graph, config)
        decode = decoder.decode(observation)
        wer = word_error_rate(decode.words, utterance.words)
        return TranscriptionResult(
            utterance_id=utterance.utterance_id,
            config_name=config.name,
            hypothesis=decode.words,
            reference=utterance.words,
            wer=wer,
            confidence=hypothesis_confidence(decode),
            n_expansions=decode.n_expansions,
            n_frames=decode.n_frames,
            latency_s=self.latency_of(decode),
        )
