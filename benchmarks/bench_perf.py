"""PERF — the two offline hot paths no end-to-end workload times alone.

The serving stack (gateway, engines, control plane, regions, tracing) is
timed by ``benchmarks/e2e/`` and nothing else.  What is left here:

1. **Rule-generator construction** on the FIG7 configuration space:
   wall time, bootstrap trials per second, and the emitted rule tables
   (the output-drift record: a change in ``rule_tables`` is a behaviour
   change, whatever the clock says).  End to end this is half of
   ``tiered_session``'s ``setup_s`` and ``core.rulegen_s`` per layer.

2. **Policy-evaluation throughput** (request-rows scored per second)
   through ``evaluate_policy`` with the shared pricing model and cached
   OSFA baseline threaded through.

A full run replaces its two sections of ``BENCH_PERF.json`` and appends
two history rows (``benchmarks/history.py``).  Smoke mode (for CI): set
``REPRO_BENCH_SMOKE=1`` for single timing repetitions; nothing is written.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf.py -q -s
"""

import os
import time

from history import write_section

from repro.analysis import format_table
from repro.core import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    RoutingRuleGenerator,
    SequentialPolicy,
    SingleVersionPolicy,
    build_pricing,
    enumerate_configurations,
    evaluate_policy,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPS = 1 if SMOKE else 7

GENERATOR_KW = dict(confidence=0.999, seed=7, min_trials=10, max_trials=60)


def _fig7_space(measurements):
    """The FIG7 benchmark's configuration space (29 configurations)."""
    return enumerate_configurations(
        measurements,
        thresholds=(0.4, 0.5, 0.6, 0.7),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )


def _best_time(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_perf_rule_generator(ic_cpu_measurements):
    measurements = ic_cpu_measurements
    configurations = _fig7_space(measurements)

    # Warm one-time costs (NumPy ufunc setup, first-touch allocations)
    # out of the timed region; nothing here imports SciPy.
    RoutingRuleGenerator(measurements, configurations[:2], **GENERATOR_KW)

    wall, generator = _best_time(
        lambda: RoutingRuleGenerator(measurements, configurations, **GENERATOR_KW)
    )
    tables = {
        objective: {
            tolerance: config.config_id
            for tolerance, config in generator.generate(
                [0.01, 0.05, 0.10], objective
            ).rules.items()
        }
        for objective in ("response-time", "cost")
    }
    n_trials = sum(e.n_trials for e in generator.results)
    print()
    print(
        format_table(
            ["construction (s)", "trials/s"],
            [[wall, n_trials / wall]],
            title=f"PERF rule-generator construction ({len(configurations)} configs, "
            f"{measurements.n_requests} requests, {n_trials} trials)",
            float_format=".3f",
        )
    )
    assert n_trials >= len(configurations) * GENERATOR_KW["min_trials"]

    write_section(
        "rule_generator",
        {
            "n_configurations": len(configurations),
            "n_requests": measurements.n_requests,
            "n_trials": n_trials,
            "wall_s": round(wall, 6),
            "trials_per_s": round(n_trials / wall, 1),
            "rule_tables": tables,
        },
        smoke=SMOKE,
    )


def test_perf_policy_evaluation(ic_cpu_measurements):
    measurements = ic_cpu_measurements
    accurate = measurements.most_accurate_version()
    fast = "ic_cpu_squeezenet"
    policies = [
        SingleVersionPolicy(accurate),
        SequentialPolicy(fast, accurate, 0.55),
        ConcurrentPolicy(fast, accurate, 0.55),
        EarlyTerminationPolicy(fast, accurate, 0.55),
    ]
    pricing = build_pricing(measurements)
    baseline = SingleVersionPolicy(accurate).evaluate(measurements)
    repeats = 2 if SMOKE else 10

    def run():
        for _ in range(repeats):
            for policy in policies:
                evaluate_policy(
                    measurements,
                    policy,
                    pricing=pricing,
                    baseline_outcomes=baseline,
                )

    wall, _ = _best_time(run)
    rows_scored = measurements.n_requests * len(policies) * repeats
    throughput = rows_scored / wall
    print()
    print(
        f"PERF policy evaluation: {rows_scored} request-rows in {wall:.3f}s "
        f"-> {throughput:,.0f} rows/s"
    )
    assert throughput > 100_000  # far below any plausible regression line

    write_section(
        "policy_evaluation",
        {
            "request_rows": rows_scored,
            "wall_s": round(wall, 6),
            "rows_per_s": round(throughput, 1),
        },
        smoke=SMOKE,
    )
