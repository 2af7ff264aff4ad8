"""Automatic speech recognition substrate.

This package is a from-scratch, pure-Python/NumPy re-implementation of the
class of ASR engine the paper evaluates: a hidden-Markov-model recogniser
driven by a heuristic beam search whose pruning parameters trade accuracy
against latency.

Pipeline (mirroring Section II-A of the paper):

1. :mod:`repro.asr.lexicon` -- phoneme inventory and word pronunciations.
2. :mod:`repro.asr.language_model` -- bigram language model with back-off.
3. :mod:`repro.asr.acoustic` -- synthetic acoustic front-end producing
   per-frame phone log-likelihoods for an utterance (speaker SNR, speaking
   rate and accent all influence difficulty).
4. :mod:`repro.asr.hmm` -- the decoding graph (lexicon x language model).
5. :mod:`repro.asr.beam_search` -- frame-synchronous token-passing beam
   search with the pruning heuristics the paper sweeps (``max_active``,
   ``beam``, ``word_end_beam``, LM successor breadth, pruning scope).
6. :mod:`repro.asr.engine` -- the service-facing engine: transcribe an
   utterance under a given heuristic configuration and report hypothesis,
   confidence, search work and modelled latency.
7. :mod:`repro.asr.versions` -- the seven Pareto-frontier heuristic
   configurations used as service versions.
"""

from repro.asr.acoustic import AcousticFrontEnd, AcousticObservation
from repro.asr.beam_search import BeamSearchConfig, BeamSearchDecoder, DecodeResult
from repro.asr.confidence import hypothesis_confidence
from repro.asr.engine import ASREngine, TranscriptionResult
from repro.asr.hmm import DecodingGraph
from repro.asr.language_model import BigramLanguageModel
from repro.asr.lexicon import Lexicon, PHONEME_INVENTORY
from repro.asr.versions import ASR_VERSIONS
from repro.asr.wer import WerBreakdown, word_error_rate

__all__ = [
    "ASREngine",
    "ASR_VERSIONS",
    "AcousticFrontEnd",
    "AcousticObservation",
    "BeamSearchConfig",
    "BeamSearchDecoder",
    "BigramLanguageModel",
    "DecodeResult",
    "DecodingGraph",
    "Lexicon",
    "PHONEME_INVENTORY",
    "TranscriptionResult",
    "WerBreakdown",
    "hypothesis_confidence",
    "word_error_rate",
]
