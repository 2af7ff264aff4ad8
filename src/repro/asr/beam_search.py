"""Frame-synchronous token-passing beam search.

This is the heart of the ASR substrate and the source of the accuracy ↔
latency trade-off that the whole paper is built around: the wider the
search (more active tokens, wider beams, more language-model successors per
word exit), the fewer search errors the decoder commits — and the more work
it performs.

The decoder explores the composition of lexicon and language model exposed
by :class:`repro.asr.hmm.DecodingGraph`.  A *token* represents a partial
hypothesis: the word currently being recognised, the position inside that
word's phone sequence, the running log score, and the words completed so
far.  Tokens advance frame-by-frame (self-loop, advance to the next phone,
or exit into a new word) and are pruned by the configured heuristics.

Pruning heuristics (paper Section III-A):

* ``max_active`` — hypothesis-count pruning: keep only the best N tokens.
* ``beam`` — score-based pruning whose reference point depends on ``scope``:
  ``"local"`` prunes relative to the best token *within the same word*
  (permissive), ``"global"`` relative to the best token overall (standard),
  and ``"network"`` disables score pruning entirely so only ``max_active``
  limits the search.
* ``word_end_beam`` — extra beam applied to word-exit expansions.
* ``lm_breadth`` — number of successor words considered per word exit
  (``None`` = the entire vocabulary).  Successors are ranked by the sum of
  the weighted language-model entry score and an acoustic look-ahead (the
  log-likelihood of each candidate word's first phone at the current frame),
  which is how lexicon-tree decoders keep narrow searches from discarding
  acoustically obvious words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.asr.acoustic import AcousticObservation
from repro.asr.hmm import DecodingGraph
from repro.asr.language_model import START_CONTEXT

__all__ = ["BeamSearchConfig", "BeamSearchDecoder", "DecodeResult"]

_LOG_HALF = float(np.log(0.5))
_VALID_SCOPES = ("local", "global", "network")


@dataclass(frozen=True)
class BeamSearchConfig:
    """Pruning-heuristic configuration of one decoder version.

    Attributes:
        name: Human-readable configuration name (e.g. ``"asr_v3"``).
        max_active: Maximum number of tokens kept after each frame.
        beam: Score beam width (natural-log units); tokens scoring more than
            ``beam`` below the reference are pruned.  Ignored when ``scope``
            is ``"network"``.
        word_end_beam: Beam applied to word-exit expansions relative to the
            best word-exit of the frame.
        lm_breadth: Number of language-model successors considered per word
            exit; ``None`` considers the whole vocabulary.
        scope: Pruning scope: ``"local"``, ``"global"`` or ``"network"``.
    """

    name: str = "default"
    max_active: int = 64
    beam: float = 8.0
    word_end_beam: float = 6.0
    lm_breadth: Optional[int] = 8
    scope: str = "global"

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ValueError("max_active must be at least 1")
        if self.beam <= 0.0:
            raise ValueError("beam must be positive")
        if self.word_end_beam <= 0.0:
            raise ValueError("word_end_beam must be positive")
        if self.lm_breadth is not None and self.lm_breadth < 1:
            raise ValueError("lm_breadth must be positive or None")
        if self.scope not in _VALID_SCOPES:
            raise ValueError(
                f"scope must be one of {_VALID_SCOPES}, got {self.scope!r}"
            )


@dataclass
class _Token:
    """A partial hypothesis during decoding."""

    word_id: int
    position: int
    context: int
    score: float
    history: Tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one utterance under one configuration.

    Attributes:
        word_ids: Hypothesised word-id sequence.
        words: Hypothesised words (strings).
        log_score: Log score of the winning hypothesis.
        runner_up_score: Log score of the best *distinct* competing
            hypothesis (``-inf`` when the search produced only one).
        n_expansions: Number of tokens created during the search — the
            decoder's work measure, which the engine converts to latency.
        n_frames: Number of acoustic frames consumed.
        peak_active: Largest number of tokens alive after pruning.
        config_name: Name of the configuration that produced the result.
    """

    word_ids: Tuple[int, ...]
    words: Tuple[str, ...]
    log_score: float
    runner_up_score: float
    n_expansions: int
    n_frames: int
    peak_active: int
    config_name: str

    @property
    def score_margin(self) -> float:
        """Gap between the winning and runner-up hypothesis scores."""
        if not np.isfinite(self.runner_up_score):
            return float("inf")
        return float(self.log_score - self.runner_up_score)


class BeamSearchDecoder:
    """Token-passing beam-search decoder over a :class:`DecodingGraph`.

    Args:
        graph: The decoding graph (lexicon + language model).
        config: Pruning-heuristic configuration.
    """

    def __init__(self, graph: DecodingGraph, config: BeamSearchConfig) -> None:
        self.graph = graph
        self.config = config

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode(self, observation: AcousticObservation) -> DecodeResult:
        """Decode one utterance's acoustic observation.

        Args:
            observation: Per-frame phone log-likelihoods.

        Returns:
            The best hypothesis found under the configured pruning.

        Raises:
            ValueError: If the observation has no frames.
        """
        if observation.n_frames == 0:
            raise ValueError("cannot decode an observation with zero frames")
        log_likelihoods = observation.log_likelihoods
        n_frames = observation.n_frames

        # Acoustic look-ahead table: log-likelihood of each word's first
        # phone at each frame, indexed [frame, word].
        word_entry_ll = log_likelihoods[:, self.graph.first_phone_ids]

        expansions = 0
        peak_active = 0

        tokens = self._initial_tokens(log_likelihoods[0], word_entry_ll[0])
        expansions += len(tokens)
        tokens = self._prune(tokens)
        peak_active = max(peak_active, len(tokens))

        for frame in range(1, n_frames):
            frame_ll = log_likelihoods[frame]
            frame_entry_ll = word_entry_ll[frame]
            candidates: Dict[Tuple[int, int, int], _Token] = {}
            word_exit_candidates: List[_Token] = []

            for token in tokens:
                expansions += self._expand_token(
                    token, frame_ll, frame_entry_ll, candidates, word_exit_candidates
                )

            self._merge_word_exits(candidates, word_exit_candidates)
            tokens = self._prune(list(candidates.values()))
            if not tokens:
                break
            peak_active = max(peak_active, len(tokens))

        return self._finalise(tokens, expansions, n_frames, peak_active)

    # ------------------------------------------------------------------
    # expansion steps
    # ------------------------------------------------------------------
    def _candidate_entries(
        self, context: int, frame_entry_ll: np.ndarray
    ) -> List[Tuple[int, float]]:
        """Rank candidate next words by LM entry score plus acoustic look-ahead.

        Returns at most ``lm_breadth`` ``(word_id, entry_score)`` pairs where
        ``entry_score`` already combines the weighted LM probability, the word
        insertion penalty and the acoustic log-likelihood of the candidate's
        first phone at the current frame.
        """
        combined = self.graph.entry_score_vector(context) + frame_entry_ll
        breadth = self.config.lm_breadth
        if breadth is None or breadth >= combined.size:
            order = np.argsort(-combined)
        else:
            top = np.argpartition(-combined, breadth - 1)[:breadth]
            order = top[np.argsort(-combined[top])]
        return [(int(w), float(combined[w])) for w in order]

    def _initial_tokens(
        self, frame_ll: np.ndarray, frame_entry_ll: np.ndarray
    ) -> List[_Token]:
        """Tokens entering the first phone of each candidate start word."""
        del frame_ll  # the entry table already folds in the first-phone score
        tokens: List[_Token] = []
        for word_id, entry_score in self._candidate_entries(
            START_CONTEXT, frame_entry_ll
        ):
            tokens.append(
                _Token(
                    word_id=word_id,
                    position=0,
                    context=START_CONTEXT,
                    score=entry_score,
                    history=(),
                )
            )
        return tokens

    def _expand_token(
        self,
        token: _Token,
        frame_ll: np.ndarray,
        frame_entry_ll: np.ndarray,
        candidates: Dict[Tuple[int, int, int], _Token],
        word_exit_candidates: List[_Token],
    ) -> int:
        """Expand one token into the next frame; returns expansions created."""
        created = 0
        phones = self.graph.phones_of(token.word_id)

        # 1. Self-loop: stay on the current phone.
        stay_score = token.score + _LOG_HALF + float(frame_ll[phones[token.position]])
        created += self._offer(
            candidates,
            _Token(
                word_id=token.word_id,
                position=token.position,
                context=token.context,
                score=stay_score,
                history=token.history,
            ),
        )

        # 2. Advance to the next phone of the same word.
        if token.position + 1 < len(phones):
            advance_score = (
                token.score + _LOG_HALF + float(frame_ll[phones[token.position + 1]])
            )
            created += self._offer(
                candidates,
                _Token(
                    word_id=token.word_id,
                    position=token.position + 1,
                    context=token.context,
                    score=advance_score,
                    history=token.history,
                ),
            )
        else:
            # 3. Word exit: finish the current word and enter a successor.
            for word_id, entry_score in self._candidate_entries(
                token.word_id, frame_entry_ll
            ):
                word_exit_candidates.append(
                    _Token(
                        word_id=word_id,
                        position=0,
                        context=token.word_id,
                        score=token.score + _LOG_HALF + entry_score,
                        history=token.history + (token.word_id,),
                    )
                )
                created += 1
        return created

    def _merge_word_exits(
        self,
        candidates: Dict[Tuple[int, int, int], _Token],
        word_exit_candidates: List[_Token],
    ) -> None:
        """Apply word-end beam pruning and merge exits into the candidate set."""
        if not word_exit_candidates:
            return
        best = max(t.score for t in word_exit_candidates)
        threshold = best - self.config.word_end_beam
        for token in word_exit_candidates:
            if token.score >= threshold:
                self._offer(candidates, token)

    @staticmethod
    def _offer(
        candidates: Dict[Tuple[int, int, int], _Token], token: _Token
    ) -> int:
        """Viterbi recombination: keep the best token per (word, pos, context)."""
        key = (token.word_id, token.position, token.context)
        existing = candidates.get(key)
        if existing is None or token.score > existing.score:
            candidates[key] = token
        return 1

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def _prune(self, tokens: List[_Token]) -> List[_Token]:
        """Apply scope-dependent beam pruning then hypothesis-count pruning."""
        if not tokens:
            return tokens

        scope = self.config.scope
        if scope == "global":
            best = max(t.score for t in tokens)
            threshold = best - self.config.beam
            tokens = [t for t in tokens if t.score >= threshold]
        elif scope == "local":
            best_per_word: Dict[int, float] = {}
            for t in tokens:
                prev = best_per_word.get(t.word_id)
                if prev is None or t.score > prev:
                    best_per_word[t.word_id] = t.score
            tokens = [
                t
                for t in tokens
                if t.score >= best_per_word[t.word_id] - self.config.beam
            ]
        # scope == "network": no score pruning.

        if len(tokens) > self.config.max_active:
            tokens.sort(key=lambda t: t.score, reverse=True)
            tokens = tokens[: self.config.max_active]
        return tokens

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def _finalise(
        self,
        tokens: List[_Token],
        expansions: int,
        n_frames: int,
        peak_active: int,
    ) -> DecodeResult:
        """Select the winning hypothesis and the best distinct competitor."""
        scored: List[Tuple[float, Tuple[int, ...]]] = []
        for token in tokens:
            # Prefer tokens that have finished their current word.
            completion_bonus = (
                0.0 if self.graph.is_final_position(token.word_id, token.position) else -2.0
            )
            hypothesis = token.history + (token.word_id,)
            scored.append((token.score + completion_bonus, hypothesis))

        if not scored:
            return DecodeResult(
                word_ids=(),
                words=(),
                log_score=float("-inf"),
                runner_up_score=float("-inf"),
                n_expansions=expansions,
                n_frames=n_frames,
                peak_active=peak_active,
                config_name=self.config.name,
            )

        scored.sort(key=lambda item: item[0], reverse=True)
        best_score, best_hypothesis = scored[0]
        runner_up = float("-inf")
        for score, hypothesis in scored[1:]:
            if hypothesis != best_hypothesis:
                runner_up = score
                break

        words = tuple(self.graph.lexicon.words[w] for w in best_hypothesis)
        return DecodeResult(
            word_ids=best_hypothesis,
            words=words,
            log_score=float(best_score),
            runner_up_score=float(runner_up),
            n_expansions=expansions,
            n_frames=n_frames,
            peak_active=peak_active,
            config_name=self.config.name,
        )
