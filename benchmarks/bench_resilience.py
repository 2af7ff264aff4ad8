"""RESIL — the chaos matrix: every fault type x every controller.

The CTRL benchmark showed what the control plane buys on sharpened
versions of the PR 3 degraded modes; this benchmark runs the *chaos
vocabulary* — gray failure, cascade, retry storm, cold-start wave,
thundering herd — against the same three controllers:

* **static** — the open loop (``control=None``): the offline-fit
  ``seq(fast, slow, 0.6)`` policy serves everything, whatever happens.
* **shed** — SLO monitors + probabilistic load shedding under breach.
* **adaptive** — tier-downgrade admission + gray-failure detection:
  under pressure, arrivals are answered by the fast tier instead of
  queueing on (or escalating into) degraded capacity.

Each cell of the matrix is scored against the *same controller on the
same scenario with the fault schedule removed* — chaos relative to that
controller's own healthy behaviour, so a controller cannot look
resilient by being uniformly slow.  The resilience scorecard per cell:

* ``goodput_retention`` — chaotic goodput / healthy goodput (1.0 =
  the fault cost nothing; higher is better).
* ``p95_inflation`` — chaotic p95 / healthy p95 (lower is better).
* ``time_to_recover_s`` — how long past the end of fault activity the
  system kept serving responses slower than 1.5x the healthy p95
  (0 = recovered instantly; lower is better).
* ``retry_amplification`` — mean attempts per request (1.0 = no
  retries; lower is better).

Pinned claims (the PR's acceptance bar):

* every chaos scenario *bites* under the static controller (retention
  drops or the tail inflates measurably);
* the adaptive controller strictly beats static goodput retention on at
  least three of the five chaos scenarios, and never loses more than a
  few percent on any;
* chaos runs are seed-deterministic (same spec -> same digest).

Headline metrics land in ``BENCH_PERF.json`` (section ``resilience``)
and ride ``compare_perf.py``: the numbers are deterministic simulation
outputs, so any delta is a behaviour change, not timer noise.

Smoke mode (for the fast CI tier): ``REPRO_BENCH_SMOKE=1`` (or running
this file directly with ``--smoke``) runs the static-vs-adaptive slice
of the matrix — unshrunk, the workload is cheap and deterministic — and
writes nothing (``history.write_section``).
The full matrix (all three controllers plus the acceptance assertions)
carries the ``slow`` marker and runs in the full tier.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -q -s
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke
"""

import os
from dataclasses import replace

import pytest

from history import write_section

from repro.analysis import format_table
from repro.service.control import (
    AdmissionSpec,
    ControlSpec,
    GrayDetectionSpec,
    SLOSpec,
    SLOState,
)
from repro.service.simulation import (
    CascadePolicy,
    NodeCrash,
    PoissonArrivals,
    RetryPolicy,
    RetryStorm,
    ThunderingHerd,
    chaos_scenarios,
    run_scenario,
    scenario_measurements,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Per-scenario p95 SLO ceilings (seconds), on the toy measurement
#: geometry (fast ~50 ms, slow ~400 ms): loose enough that a healthy run
#: never breaches, tight enough that every chaos scenario does.
P95_TARGETS = {
    "gray-failure": 0.9,
    "cascade": 1.2,
    "retry-storm": 0.9,
    "cold-start": 1.2,
    "thundering-herd": 0.9,
}

#: Virtual time the injected fault activity is over (windows closed,
#: cascade windows expired, warmups finished) — the reference point for
#: time-to-recover.
FAULT_OVER_S = {
    "gray-failure": 30.0,
    "cascade": 37.0,  # crash recovers at 25; cascade window expires by 37
    "retry-storm": 25.0,
    "cold-start": 24.0,  # spike ends at 18; warmup_s=6
    "thundering-herd": 16.25,  # release at 16, spread 0.25
}


def _slos(target):
    return (
        SLOSpec(
            name="latency",
            max_p95_latency_s=target,
            breach_after=1,
            clear_after=6,
        ),
        SLOSpec(
            name="availability",
            min_availability=0.9,
            breach_after=1,
            clear_after=6,
        ),
    )


def _shed_control(target):
    return ControlSpec(
        window_s=5.0,
        tick_interval_s=0.25,
        slos=_slos(target),
        admission=AdmissionSpec(policy="probabilistic", shed_probability=0.85),
    )


def _adaptive_control(target):
    return ControlSpec(
        window_s=5.0,
        tick_interval_s=0.25,
        slos=_slos(target),
        admission=AdmissionSpec(policy="degrade"),
        gray_detection=GrayDetectionSpec(
            # 2-node pools: the median is the pool mean, so divergence
            # ratios cap just below 2 — 1.4 separates an injected gray
            # node from healthy noise.
            ratio_threshold=1.4,
            min_samples=4,
            detect_after=2,
            clear_after=4,
            state_on_detect=SLOState.BREACH,
        ),
    )


def _bench_scenarios():
    """The chaos vocabulary, sharpened past the golden-trace scales.

    The golden chaos scenarios are sized to pin behaviour cheaply; the
    bench variants raise offered load and fault severity until the open
    loop visibly suffers — that is the regime where controller
    differences are measurable rather than noise.
    """
    base = chaos_scenarios()
    # The matrix is deterministic and cheap (~3 s), so smoke mode runs
    # it unshrunk.
    n = 300
    gray = base["gray-failure"]
    gray = replace(
        gray,
        n_requests=n,
        arrivals=PoissonArrivals(6.0),
        # Deeper slowdown, harsher confidence loss, longer window: the
        # gray node backs up its pool and drives spurious escalations.
        faults=(
            replace(
                gray.faults[0],
                speed_factor=0.2,
                confidence_factor=0.3,
                until_s=30.0,
            ),
        ),
    )
    cascade = replace(
        base["cascade"],
        n_requests=n,
        arrivals=PoissonArrivals(6.0),
        faults=(
            NodeCrash(at_s=6.0, version="slow", node_index=0, recover_at_s=25.0),
            CascadePolicy(
                version="slow",
                window_s=12.0,
                base_probability=0.5,
                load_factor=0.2,
                max_probability=0.95,
            ),
        ),
        retry=RetryPolicy(max_attempts=2, backoff_s=0.05),
    )
    storm = replace(
        base["retry-storm"],
        n_requests=n,
        arrivals=PoissonArrivals(6.0),
        # The storm hits the accurate pool: every escalation gambles on a
        # bad bucket, so the open loop burns its retry budgets there.
        faults=(
            RetryStorm(
                start_s=5.0,
                end_s=25.0,
                failure_probability=0.9,
                bucket_s=0.5,
                bad_fraction=0.7,
                versions=("slow",),
            ),
        ),
    )
    cold = replace(base["cold-start"], n_requests=n)
    herd = replace(
        base["thundering-herd"],
        n_requests=n,
        arrivals=PoissonArrivals(6.0),
        faults=(ThunderingHerd(start_s=8.0, end_s=16.0, spread_s=0.25),),
    )
    return {
        "gray-failure": gray,
        "cascade": cascade,
        "retry-storm": storm,
        "cold-start": cold,
        "thundering-herd": herd,
    }


def _controllers(name):
    target = P95_TARGETS[name]
    return {
        "static": None,
        "shed": _shed_control(target),
        "adaptive": _adaptive_control(target),
    }


def _time_to_recover(report, healthy_p95, fault_over_s):
    """Seconds past the end of fault activity the tail stayed degraded."""
    threshold = healthy_p95 * 1.5
    last_bad = max(
        (
            r.finished_s
            for r in report.records
            if not r.failed and not r.shed and r.response_time_s > threshold
        ),
        default=float("-inf"),
    )
    return max(0.0, last_bad - fault_over_s)


def _scorecard(name, chaotic, healthy):
    healthy_p95 = healthy.p95_latency_s
    return {
        "goodput_retention": chaotic.goodput_rps / healthy.goodput_rps,
        "p95_inflation": chaotic.p95_latency_s / healthy_p95,
        "time_to_recover_s": _time_to_recover(
            chaotic, healthy_p95, FAULT_OVER_S[name]
        ),
        "retry_amplification": chaotic.retry_amplification,
    }


def _run_matrix(scenarios, controller_names):
    """Run chaos + healthy twins per (scenario, controller); score each."""
    measurements = scenario_measurements()
    scores, reports = {}, {}
    for name, spec in scenarios.items():
        controllers = _controllers(name)
        for controller in controller_names:
            control = controllers[controller]
            chaotic = run_scenario(
                replace(spec, control=control),
                measurements,
                check_invariants=True,
            )
            healthy = run_scenario(
                replace(spec, name=f"{name}-healthy", faults=(), control=control),
                measurements,
                check_invariants=True,
            )
            scores[(name, controller)] = _scorecard(name, chaotic, healthy)
            reports[(name, controller)] = (chaotic, healthy)
    return scores, reports


def _emit(scores, reports):
    rows = [
        [
            name,
            controller,
            card["goodput_retention"],
            card["p95_inflation"],
            card["time_to_recover_s"],
            card["retry_amplification"],
            reports[(name, controller)][0].availability,
            reports[(name, controller)][0].n_shed,
            reports[(name, controller)][0].n_retry_denied,
        ]
        for (name, controller), card in scores.items()
    ]
    print()
    print(
        format_table(
            [
                "scenario",
                "controller",
                "goodput ret.",
                "p95 infl.",
                "recover (s)",
                "retry amp.",
                "availability",
                "shed",
                "denied",
            ],
            rows,
            title="RESIL chaos matrix: resilience scorecard per controller",
            float_format=".3f",
        )
    )
    artifact = {
        f"{name}/{controller}": {
            **{k: round(v, 6) for k, v in card.items()},
            "digest": reports[(name, controller)][0].digest(),
        }
        for (name, controller), card in scores.items()
    }
    write_section(
        "resilience",
        {
            metric: {
                f"{name}-{controller}": round(card[metric], 4)
                for (name, controller), card in scores.items()
            }
            for metric in (
                "goodput_retention",
                "p95_inflation",
                "time_to_recover_s",
                "retry_amplification",
            )
        },
        smoke=SMOKE,
        artifact={"results": artifact},
    )


@pytest.mark.skipif(
    not SMOKE, reason="smoke slice of the chaos matrix; the full tier runs it all"
)
def test_resilience_smoke():
    """Fast-tier slice: every fault type, static vs adaptive, full loads."""
    scenarios = _bench_scenarios()
    scores, reports = _run_matrix(scenarios, ("static", "adaptive"))
    _emit(scores, reports)
    # The smoke slice still pins the load-bearing wiring: chaos runs are
    # deterministic, and every scenario's chaos actually changes behaviour.
    for name, spec in scenarios.items():
        chaotic, healthy = reports[(name, "static")]
        assert chaotic.digest() != healthy.digest(), name


@pytest.mark.slow
def test_resilience_matrix():
    measurements = scenario_measurements()
    scenarios = _bench_scenarios()
    scores, reports = _run_matrix(scenarios, ("static", "shed", "adaptive"))
    _emit(scores, reports)

    # Determinism: each chaos cell reproduces its own digest.
    for name, spec in scenarios.items():
        control = _controllers(name)["adaptive"]
        again = run_scenario(
            replace(spec, control=control), measurements, check_invariants=True
        )
        assert again.digest() == reports[(name, "adaptive")][0].digest(), name

    # Every chaos scenario must bite under the open loop: goodput drops
    # or the tail inflates. A scenario that costs nothing pins nothing.
    for name in scenarios:
        card = scores[(name, "static")]
        assert (
            card["goodput_retention"] < 0.97 or card["p95_inflation"] > 1.10
        ), (name, card)

    # The adaptive controller's claim: strictly better goodput retention
    # than static on at least three of the five chaos scenarios...
    wins = [
        name
        for name in scenarios
        if scores[(name, "adaptive")]["goodput_retention"]
        > scores[(name, "static")]["goodput_retention"]
    ]
    assert len(wins) >= 3, {
        name: (
            scores[(name, "static")]["goodput_retention"],
            scores[(name, "adaptive")]["goodput_retention"],
        )
        for name in scenarios
    }
    # ...and never materially worse on the rest.
    for name in scenarios:
        assert (
            scores[(name, "adaptive")]["goodput_retention"]
            >= scores[(name, "static")]["goodput_retention"] * 0.95
        ), name

    # Budgeted retries keep amplification bounded under the storm.
    assert scores[("retry-storm", "static")]["retry_amplification"] <= 2.0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        # pytest imports this file afresh, so its SMOKE sees the flag.
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    raise SystemExit(
        pytest.main(
            [__file__, "-q", "-s"]
            + (["-m", "not slow"] if "--smoke" in sys.argv else [])
        )
    )
