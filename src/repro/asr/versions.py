"""The seven ASR service versions.

The paper studies seven heuristic configurations of the production ASR
engine, chosen by the engine's maintainers from an exhaustive sweep of six
beam-search heuristics so that they lie along the accuracy-latency Pareto
frontier.  The versions here play the same role for our decoder: version 1
searches narrowly and cheaply, version 7 searches (almost) exhaustively.

The three pruning "scopes" discussed in the paper map onto the decoder as
documented in :mod:`repro.asr.beam_search`: ``local`` pruning compares
hypotheses only within the same word, ``global`` compares against the best
hypothesis overall, and ``network`` disables score pruning so the search is
limited only by the hypothesis count.
"""

from __future__ import annotations

from typing import Dict

from repro.asr.beam_search import BeamSearchConfig

__all__ = ["ASR_VERSIONS"]

#: The seven Pareto-frontier configurations, fastest first.  Keys are the
#: service-version names used throughout measurements and benchmarks.
ASR_VERSIONS: Dict[str, BeamSearchConfig] = {
    "asr_v1": BeamSearchConfig(
        name="asr_v1", max_active=20, beam=6.0, word_end_beam=4.5,
        lm_breadth=10, scope="global",
    ),
    "asr_v2": BeamSearchConfig(
        name="asr_v2", max_active=26, beam=7.0, word_end_beam=5.5,
        lm_breadth=12, scope="global",
    ),
    "asr_v3": BeamSearchConfig(
        name="asr_v3", max_active=32, beam=8.0, word_end_beam=6.5,
        lm_breadth=14, scope="global",
    ),
    "asr_v4": BeamSearchConfig(
        name="asr_v4", max_active=40, beam=9.0, word_end_beam=7.5,
        lm_breadth=18, scope="global",
    ),
    "asr_v5": BeamSearchConfig(
        name="asr_v5", max_active=48, beam=10.5, word_end_beam=8.5,
        lm_breadth=22, scope="global",
    ),
    "asr_v6": BeamSearchConfig(
        name="asr_v6", max_active=60, beam=12.0, word_end_beam=9.5,
        lm_breadth=26, scope="global",
    ),
    "asr_v7": BeamSearchConfig(
        name="asr_v7", max_active=64, beam=13.0, word_end_beam=10.5,
        lm_breadth=30, scope="network",
    ),
}
