"""Decoder confidence estimation.

Tolerance Tiers' ensembling policies decide whether a fast service version's
result is good enough by looking at the model's *confidence* in its own
answer (paper Section IV: "result confidence metrics" are one of the two
general ML characteristics the design leverages).  For a beam-search
recogniser two cheap signals are available at the end of a decode:

* the per-frame normalised log score of the winning hypothesis — a poorly
  matching hypothesis accumulates low acoustic likelihoods, and
* the per-frame score margin between the winner and the best *distinct*
  competing hypothesis — a close runner-up means the search was genuinely
  ambiguous.

Both are combined through a logistic squash into a single value in
``[0, 1]``.  The default weights were chosen so that correct transcriptions
of the synthetic corpus land mostly above 0.6 and incorrect ones mostly
below 0.5, giving the routing policies a usable operating range; they are
exposed as keyword arguments so ablations can study other calibrations.
"""

from __future__ import annotations

import math

from repro import checks
from repro.asr.beam_search import DecodeResult

__all__ = ["hypothesis_confidence"]


def hypothesis_confidence(
    result: DecodeResult,
    *,
    score_center: float = -2.0,
    score_weight: float = 2.2,
    margin_weight: float = 8.0,
) -> float:
    """Map a decode result to a confidence score in ``[0, 1]``.

    Args:
        result: The decode result to score.
        score_center: Per-frame log score at which the score feature is
            neutral; scores above it push confidence up.
        score_weight: Weight of the per-frame score feature.
        margin_weight: Weight of the per-frame winner/runner-up margin.

    Returns:
        Confidence in ``[0, 1]``; 0.0 if the decode produced no hypothesis.

    Raises:
        ValueError: If either weight is negative.
    """
    checks.non_negative("score_weight", score_weight)
    checks.non_negative("margin_weight", margin_weight)
    if not result.words:
        return 0.0
    frames = max(result.n_frames, 1)
    score_per_frame = result.log_score / frames
    if math.isfinite(result.runner_up_score):
        margin_per_frame = result.score_margin / frames
    else:
        # No surviving competitor: treat as a comfortably wide margin.
        margin_per_frame = 0.25
    logit = score_weight * (score_per_frame - score_center) + margin_weight * (
        margin_per_frame - 0.05
    )
    return 1.0 / (1.0 + math.exp(-logit))
