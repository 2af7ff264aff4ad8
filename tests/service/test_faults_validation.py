"""Construction-time validation of the fault vocabulary.

Every fault event — the original trio and the chaos vocabulary — rejects
malformed windows, timestamps and rates at construction with a clear
``ValueError``, so a typo in a scenario spec fails fast instead of
silently simulating something else.  ``RetryPolicy`` budget fields get
the same treatment.
"""

import math

import numpy as np
import pytest

from repro.service.simulation import (
    CascadePolicy,
    ColdStartWave,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
    RetryPolicy,
    RetryStorm,
    ThunderingHerd,
    TransientFaults,
    affected_versions,
)


# ----------------------------------------------------------------------
# valid constructions (the happy path must not over-reject)
# ----------------------------------------------------------------------
VALID = [
    NodeCrash(at_s=1.0, version="fast"),
    NodeCrash(at_s=0.0, version="fast", node_index=2, recover_at_s=5.0),
    NodeSlowdown(at_s=1.0, version="slow", speed_factor=0.25, until_s=3.0),
    NodeSlowdown(at_s=0.0, version="slow", speed_factor=2.0),
    TransientFaults(start_s=1.0, end_s=2.0, failure_probability=0.5),
    TransientFaults(
        start_s=0.0, end_s=1.0, failure_probability=1.0, versions=("fast",)
    ),
    GrayFailure(at_s=1.0, version="fast"),
    GrayFailure(
        at_s=0.0,
        version="fast",
        speed_factor=1.0,
        confidence_factor=0.0,
        until_s=9.0,
    ),
    CascadePolicy(),
    CascadePolicy(version="slow", window_s=0.5, base_probability=0.0),
    RetryStorm(start_s=1.0, end_s=4.0),
    RetryStorm(start_s=0.0, end_s=2.0, bad_fraction=1.0, versions=("fast",)),
    ColdStartWave(warmup_s=2.0),
    ColdStartWave(warmup_s=0.5, speed_factor=1.0, confidence_factor=0.0),
    ThunderingHerd(start_s=1.0, end_s=2.0),
    ThunderingHerd(start_s=0.0, end_s=1.0, spread_s=0.0),
    # numpy integers are integers
    NodeCrash(at_s=1.0, version="fast", node_index=np.int64(1)),
    GrayFailure(at_s=1.0, version="fast", node_index=np.int32(2)),
]


@pytest.mark.parametrize(
    "fault", VALID, ids=[type(f).__name__ + f"-{i}" for i, f in enumerate(VALID)]
)
def test_valid_constructions_accepted(fault):
    assert affected_versions(fault) is not None  # well-formed for the engine


# ----------------------------------------------------------------------
# invalid constructions (one representative per rule, every class)
# ----------------------------------------------------------------------
INVALID = [
    # negative timestamps
    (lambda: NodeCrash(at_s=-1.0, version="fast"), "non-negative"),
    (lambda: NodeSlowdown(at_s=-0.1, version="fast"), "non-negative"),
    (lambda: GrayFailure(at_s=-2.0, version="fast"), "non-negative"),
    (
        lambda: TransientFaults(start_s=-1.0, end_s=2.0, failure_probability=0.5),
        "non-negative",
    ),
    (lambda: RetryStorm(start_s=-1.0, end_s=2.0), "non-negative"),
    (lambda: ThunderingHerd(start_s=-1.0, end_s=2.0), "non-negative"),
    # inverted / empty windows
    (lambda: NodeCrash(at_s=5.0, version="fast", recover_at_s=5.0), "recover_at_s"),
    (lambda: NodeSlowdown(at_s=5.0, version="fast", until_s=4.0), "until_s"),
    (lambda: GrayFailure(at_s=5.0, version="fast", until_s=5.0), "until_s"),
    (
        lambda: TransientFaults(start_s=2.0, end_s=2.0, failure_probability=0.5),
        "end_s",
    ),
    (lambda: RetryStorm(start_s=3.0, end_s=1.0), "end_s"),
    (lambda: ThunderingHerd(start_s=2.0, end_s=2.0), "end_s"),
    # rates outside [0, 1]
    (
        lambda: TransientFaults(start_s=1.0, end_s=2.0, failure_probability=1.5),
        r"\[0, 1\]",
    ),
    (
        lambda: RetryStorm(start_s=1.0, end_s=2.0, failure_probability=-0.1),
        r"\[0, 1\]",
    ),
    (lambda: RetryStorm(start_s=1.0, end_s=2.0, bad_fraction=1.5), r"\[0, 1\]"),
    (lambda: GrayFailure(at_s=1.0, version="fast", confidence_factor=1.5), r"\[0, 1\]"),
    (lambda: CascadePolicy(base_probability=-0.2), r"\[0, 1\]"),
    (lambda: CascadePolicy(max_probability=1.1), r"\[0, 1\]"),
    (lambda: ColdStartWave(warmup_s=1.0, confidence_factor=-0.5), r"\[0, 1\]"),
    # speed factors
    (lambda: NodeSlowdown(at_s=1.0, version="fast", speed_factor=0.0), "positive"),
    (lambda: GrayFailure(at_s=1.0, version="fast", speed_factor=0.0), "speed_factor"),
    (lambda: GrayFailure(at_s=1.0, version="fast", speed_factor=1.5), "speed_factor"),
    (lambda: ColdStartWave(warmup_s=1.0, speed_factor=0.0), "speed_factor"),
    # structural fields
    (lambda: NodeCrash(at_s=1.0, version="fast", node_index=-1), "node_index"),
    (lambda: GrayFailure(at_s=1.0, version="fast", node_index=-1), "node_index"),
    (lambda: CascadePolicy(window_s=0.0), "positive"),
    (lambda: CascadePolicy(load_factor=-0.1), "non-negative"),
    (
        lambda: CascadePolicy(base_probability=0.8, max_probability=0.5),
        "max_probability",
    ),
    (lambda: RetryStorm(start_s=1.0, end_s=2.0, bucket_s=0.0), "positive"),
    (lambda: ColdStartWave(warmup_s=0.0), "positive"),
    (lambda: ThunderingHerd(start_s=1.0, end_s=2.0, spread_s=-0.01), "non-negative"),
    # non-finite values
    (lambda: NodeCrash(at_s=math.nan, version="fast"), "finite"),
    (lambda: GrayFailure(at_s=1.0, version="fast", until_s=math.inf), "finite"),
    (
        lambda: RetryStorm(start_s=1.0, end_s=math.nan),
        "finite",
    ),
    (lambda: ColdStartWave(warmup_s=math.inf), "finite"),
    # appended: the remaining structural and retry-schedule rules
    (lambda: NodeSlowdown(at_s=1.0, version="fast", node_index=-1), "node_index"),
    (lambda: RetryPolicy(max_attempts=2, backoff_s=-0.5), "backoff_s"),
    (lambda: RetryPolicy(max_attempts=2, backoff_factor=0.5), "backoff_factor"),
    (lambda: RetryPolicy(max_attempts=2).delay_before_retry(0), "1-based"),
    # appended: non-finite retry schedules and non-integer counts, which
    # used to construct and then misbehave inside the event loop
    (lambda: RetryPolicy(max_attempts=3, backoff_s=math.nan), "backoff_s"),
    (lambda: RetryPolicy(max_attempts=3, backoff_s=math.inf), "backoff_s"),
    (lambda: RetryPolicy(max_attempts=3, backoff_factor=math.nan), "backoff_factor"),
    (lambda: RetryPolicy(max_attempts=3, backoff_factor=math.inf), "backoff_factor"),
    (lambda: RetryPolicy(max_attempts=2.5), "max_attempts"),
    (lambda: RetryPolicy(max_attempts=3, retry_budget=1.5), "retry_budget"),
    (
        lambda: RetryPolicy(max_attempts=3, max_inflight_retries=2.0),
        "max_inflight_retries",
    ),
    (lambda: RetryPolicy(max_attempts=3, max_total_retries=0.5), "max_total_retries"),
    (lambda: NodeCrash(at_s=1.0, version="fast", node_index=0.5), "node_index"),
    (lambda: NodeSlowdown(at_s=1.0, version="fast", node_index=1.0), "node_index"),
    (lambda: GrayFailure(at_s=1.0, version="fast", node_index=0.5), "node_index"),
]


@pytest.mark.parametrize(
    "build,match",
    INVALID,
    ids=[f"invalid-{i}" for i in range(len(INVALID))],
)
def test_invalid_constructions_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# ----------------------------------------------------------------------
# RetryPolicy budgets
# ----------------------------------------------------------------------
def test_retry_policy_budgets_default_unbounded():
    policy = RetryPolicy(max_attempts=3)
    assert policy.retry_budget is None
    assert policy.max_inflight_retries is None
    assert policy.max_total_retries is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"retry_budget": 0},
        {"retry_budget": 5},
        {"max_inflight_retries": 0},
        {"max_total_retries": 100},
        {"retry_budget": 2, "max_inflight_retries": 8, "max_total_retries": 40},
        {"retry_budget": np.int64(1), "max_total_retries": np.int32(9)},
    ],
)
def test_retry_policy_valid_budgets(kwargs):
    RetryPolicy(max_attempts=3, **kwargs)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"retry_budget": -1}, "retry_budget"),
        ({"max_inflight_retries": -1}, "max_inflight_retries"),
        ({"max_total_retries": -5}, "max_total_retries"),
    ],
)
def test_retry_policy_negative_budgets_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RetryPolicy(max_attempts=3, **kwargs)


def test_retry_backoff_grows_geometrically_from_the_first_failure():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=3.0)
    delays = [policy.delay_before_retry(n) for n in (1, 2, 3)]
    assert delays == pytest.approx([0.1, 0.3, 0.9])
    assert RetryPolicy(max_attempts=4).delay_before_retry(3) == 0.0


# ----------------------------------------------------------------------
# affected_versions: what the engine validates pool names against
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fault,expected",
    [
        (NodeCrash(at_s=1.0, version="fast"), ("fast",)),
        (GrayFailure(at_s=1.0, version="slow"), ("slow",)),
        (TransientFaults(1.0, 2.0, 0.5, versions=("a", "b")), ("a", "b")),
        (TransientFaults(1.0, 2.0, 0.5), ()),
        (RetryStorm(1.0, 2.0, versions=("fast",)), ("fast",)),
        (RetryStorm(1.0, 2.0), ()),
        (CascadePolicy(version="slow"), ("slow",)),
        (CascadePolicy(), ()),
        (ColdStartWave(warmup_s=1.0, version="fast"), ("fast",)),
        (ColdStartWave(warmup_s=1.0), ()),
        (ThunderingHerd(1.0, 2.0), ()),
    ],
)
def test_affected_versions(fault, expected):
    assert affected_versions(fault) == expected


def test_engine_rejects_unknown_chaos_pool():
    """A typoed pool name in any chaos fault fails at engine construction."""
    from repro.core.configuration import EnsembleConfiguration
    from repro.core.policies import SingleVersionPolicy
    from repro.service.simulation import (
        ServingSimulator,
        build_replay_cluster,
        scenario_measurements,
    )

    toy = scenario_measurements()
    for fault in (
        GrayFailure(at_s=1.0, version="nope"),
        CascadePolicy(version="nope"),
        RetryStorm(1.0, 2.0, versions=("nope",)),
        ColdStartWave(warmup_s=1.0, version="nope"),
    ):
        with pytest.raises(ValueError, match="unknown version"):
            ServingSimulator(
                build_replay_cluster(toy, {"fast": 1}),
                configuration=EnsembleConfiguration(
                    "v", SingleVersionPolicy("fast")
                ),
                faults=(fault,),
            )
