"""The bootstrap's transient memory: one outcome row's gather per block.

``OutcomeMatrix.evaluate`` gathers a block's trials from one outcome row
at a time, so what a block holds beyond the configuration's columns is
its index draws and one ``(TRIAL_BLOCK, sample_size)`` float gather.  A
gather of every row at once (five rows for a two-version policy) peaks
at more than six such gathers on this table.
"""

import tracemalloc

import numpy as np
import pytest

from repro.contract import RULEGEN_SAMPLE_FRACTION
from repro.core.bootstrap import TRIAL_BLOCK, bootstrap_configurations
from repro.core.configuration import enumerate_configurations
from repro.core.outcome_matrix import OutcomeMatrix
from repro.service import measure_ic_service
from repro.stats.confidence import ConfidenceTest

N_REQUESTS = 20_000


@pytest.fixture(scope="module")
def design_space():
    measurements = measure_ic_service(N_REQUESTS, device="cpu", seed=17)
    configurations = enumerate_configurations(
        measurements,
        thresholds=(0.5,),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )
    return measurements, configurations


def test_a_block_holds_one_row_gather(design_space):
    measurements, configurations = design_space
    assert {c.policy.kind for c in configurations} == {"single", "seq", "conc", "et"}
    matrix = OutcomeMatrix.build(measurements, configurations)
    sample_size = round(N_REQUESTS * RULEGEN_SAMPLE_FRACTION)
    row_gather = TRIAL_BLOCK * sample_size * np.dtype(np.float64).itemsize
    test = ConfidenceTest(min_trials=10, max_trials=130)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        estimates = bootstrap_configurations(
            matrix, configurations, confidence_test=test,
            rng=np.random.default_rng(5),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == len(configurations)
    # One row's gather, the block's index draws (as large again), one
    # configuration's columns and the draws' scratch.
    assert peak - entry <= 4 * row_gather, (
        f"peak {(peak - entry) / row_gather:.2f} row gathers above entry"
    )
