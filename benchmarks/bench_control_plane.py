"""CTRL — closed-loop serving: static policy vs shed-only vs fully adaptive.

The SCEN benchmark showed the *tier mix* survives degraded infrastructure
better than OSFA; this benchmark asks what the *control plane* buys on top
of it.  Three sharpened degraded-mode scenarios (a flash crowd, a
half-dead accurate pool, a diurnal wave) each run under three controllers
over the same tiered deployment:

* **static** — the open loop: the offline-fit ``seq(fast, slow, 0.6)``
  policy serves everything, whatever happens (``control=None``; byte-for-
  byte the PR 3 engine).
* **shed-only** — SLO monitors plus a probabilistic admission
  controller: under a p95 breach, incoming requests are shed with
  probability 0.85 until the tail recovers.  Availability is spent to
  keep the latency SLO.
* **adaptive** — tier-downgrade admission plus the online policy
  adaptor: under breach, arrivals are force-degraded to the fast tier
  while the adaptor re-fits the PR 2 rule generator on the trailing
  telemetry window, hot-swapping onto cheaper configurations, and
  anchors back to the offline policy once the SLOs recover.

Pinned claims (the PR's acceptance bar):

* on the spike and node-crash scenarios the adaptive controller reaches
  **higher goodput (or equal goodput at lower node-seconds)** than the
  static system, with a better p95;
* the shed-only controller **keeps p95 inside its SLO** on those
  scenarios where the static system breaches it;
* closed-loop runs are **seed-deterministic** (same spec -> same digest);
* on the healthy diurnal wave the control plane does no harm.

Headline metrics land in ``BENCH_PERF.json`` (section ``control_plane``)
for ``compare_perf.py`` — the numbers are deterministic simulation
outputs, so any drift is a behaviour change, not timer noise.

Smoke mode (for the fast CI tier): set ``REPRO_BENCH_SMOKE=1``; the
deterministic workload is cheap enough to run unshrunk, so smoke mode
only prints and asserts — nothing is written (``history.write_section``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_control_plane.py -q -s
"""

import os
from dataclasses import replace

from history import write_section

from repro.analysis import format_table
from repro.service.control import AdaptorConfig, AdmissionSpec, ControlSpec, SLOSpec
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
    SpikeArrivals,
    canonical_scenarios,
    run_scenario,
    scenario_measurements,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Per-scenario p95 SLO ceilings (seconds).  Chosen on the toy
#: measurement geometry so the static system breaches them on the spike
#: and the node crash, and meets them on the diurnal wave.
P95_TARGETS = {"spike": 1.5, "node-crash": 2.5, "diurnal": 1.5}


def _slos(target):
    return (
        SLOSpec(
            name="latency",
            max_p95_latency_s=target,
            breach_after=1,
            clear_after=8,
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
        window_s=8.0,
        tick_interval_s=0.25,
        slos=_slos(target),
        admission=AdmissionSpec(policy="degrade"),
        adaptor=AdaptorConfig(
            refit_interval_s=1.0,
            min_window_samples=15,
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
            thresholds=(0.3, 0.4, 0.5, 0.6, 0.7),
        ),
    )


def _bench_scenarios():
    """The three closed-loop scenarios, sharpened past the SCEN sizes."""
    base = canonical_scenarios()
    spike = replace(
        base["spike"],
        arrivals=SpikeArrivals(
            2.0, spike_start_s=10.0, spike_duration_s=15.0, spike_multiplier=8.0
        ),
        n_requests=300,
    )
    crash = replace(
        base["node-crash"],
        arrivals=PoissonArrivals(6.0),
        n_requests=300,
        faults=(
            NodeCrash(at_s=6.0, version="slow", node_index=0, recover_at_s=30.0),
        ),
    )
    diurnal = replace(base["diurnal"], n_requests=300)
    return {"spike": spike, "node-crash": crash, "diurnal": diurnal}


def _row(name, controller, report):
    return [
        name,
        controller,
        report.p95_latency_s,
        report.goodput_rps,
        report.availability,
        report.n_shed,
        report.n_degraded,
        sum(report.total_node_seconds.values()),
    ]


def test_control_plane_sweep():
    measurements = scenario_measurements()
    scenarios = _bench_scenarios()
    rows = []
    artifact = {}
    reports = {}
    for name, spec in scenarios.items():
        target = P95_TARGETS[name]
        variants = {
            "static": spec,
            "shed": replace(spec, control=_shed_control(target)),
            "adaptive": replace(spec, control=_adaptive_control(target)),
        }
        for controller, variant in variants.items():
            report = run_scenario(variant, measurements, check_invariants=True)
            reports[(name, controller)] = report
            rows.append(_row(name, controller, report))
            artifact[f"{name}/{controller}"] = {
                "p95_latency_s": report.p95_latency_s,
                "goodput_rps": report.goodput_rps,
                "availability": report.availability,
                "n_shed": report.n_shed,
                "n_degraded": report.n_degraded,
                "node_seconds": sum(report.total_node_seconds.values()),
                "n_control_events": len(report.control_log),
                "digest": report.digest(),
            }

        # Determinism: the closed loop reproduces its own digest.
        again = run_scenario(
            variants["adaptive"], measurements, check_invariants=True
        )
        assert again.digest() == reports[(name, "adaptive")].digest(), name

    print()
    print(
        format_table(
            [
                "scenario",
                "controller",
                "p95 (s)",
                "goodput (r/s)",
                "availability",
                "shed",
                "degraded",
                "node-s",
            ],
            rows,
            title=(
                "CTRL closed-loop sweep: static vs shed-only vs adaptive "
                "over the tiered deployment"
            ),
            float_format=".3f",
        )
    )

    # The adaptive controller's claim: higher goodput, or equal goodput
    # at lower node-seconds — plus a better tail — on the overload and
    # fault scenarios.
    for name in ("spike", "node-crash"):
        static = reports[(name, "static")]
        adaptive = reports[(name, "adaptive")]
        ns_static = sum(static.total_node_seconds.values())
        ns_adaptive = sum(adaptive.total_node_seconds.values())
        assert adaptive.goodput_rps > static.goodput_rps or (
            adaptive.goodput_rps >= static.goodput_rps * 0.98
            and ns_adaptive < ns_static
        ), name
        assert adaptive.p95_latency_s < static.p95_latency_s, name

    # The shed-only controller's claim: where the static system breaches
    # its p95 SLO, shedding keeps the served tail inside it.
    for name in ("spike", "node-crash"):
        target = P95_TARGETS[name]
        assert reports[(name, "static")].p95_latency_s > target, name
        assert reports[(name, "shed")].p95_latency_s <= target, name

    # Do no harm: on the healthy diurnal wave the closed loop must not
    # cost goodput (the SLO never breaches, so the plane never acts).
    assert (
        reports[("diurnal", "adaptive")].goodput_rps
        >= reports[("diurnal", "static")].goodput_rps * 0.95
    )

    write_section(
        "control_plane",
        {
            "goodput_rps": {
                f"{name}-{controller}": round(r.goodput_rps, 3)
                for (name, controller), r in reports.items()
            },
            "p95_latency_s": {
                f"{name}-{controller}": round(r.p95_latency_s, 4)
                for (name, controller), r in reports.items()
            },
            "node_seconds": {
                f"{name}-{controller}": round(
                    sum(r.total_node_seconds.values()), 3
                )
                for (name, controller), r in reports.items()
            },
        },
        smoke=SMOKE,
        artifact={"results": artifact},
    )
