"""The scalar rule-generator construction the outcome matrix replaced.

Reference implementation for ``tests/core/test_outcome_matrix.py``: what
``RoutingRuleGenerator(..., engine="legacy")`` computed before the
``engine`` knob was deleted — every configuration of the design space
bootstrapped, in order, by the scalar per-trial loop
(``bootstrap_configuration(..., outcome_matrix=None)``) over **one shared
rng**, so configuration ``k``'s trials depend on how many draws
configurations ``0..k-1`` consumed.  That shared stream is what makes the
comparison a test of the vectorized loop's rng replay, not only of its
arithmetic.  Do not optimise this file.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.bootstrap import WorstCaseEstimate, bootstrap_configuration
from repro.core.configuration import EnsembleConfiguration
from repro.core.metrics import build_pricing
from repro.service.measurement import MeasurementSet
from repro.stats.confidence import ConfidenceTest


def reference_results(
    measurements: MeasurementSet,
    configurations: Sequence[EnsembleConfiguration],
    *,
    confidence: float = 0.999,
    sample_fraction: float = 0.1,
    seed: int = 0,
    degradation_mode: str = "relative",
    min_trials: int = 10,
    max_trials: int = 120,
) -> List[WorstCaseEstimate]:
    """``RoutingRuleGenerator(...).results`` by the scalar loop.

    Takes the generator's own keyword arguments (same defaults), so a
    test builds both sides from one ``kwargs`` dict.
    """
    test = ConfidenceTest(
        confidence=confidence, min_trials=min_trials, max_trials=max_trials
    )
    rng = np.random.default_rng(seed)
    pricing = build_pricing(measurements)
    baseline_version = measurements.most_accurate_version()
    return [
        bootstrap_configuration(
            measurements,
            configuration,
            confidence_test=test,
            rng=rng,
            sample_fraction=sample_fraction,
            pricing=pricing,
            baseline_version=baseline_version,
            degradation_mode=degradation_mode,
            outcome_matrix=None,
        )
        for configuration in configurations
    ]
