"""REGIONS — multi-region sharding: what failover buys, what workers buy.

Two questions, answered with deterministic simulation outputs plus one
wall-clock measurement:

1. **Locality vs failover goodput.**  The ``regional-outage`` canonical
   scenario runs twice: once as shipped (the dead region's traffic
   spills across the link) and once with its failover link severed for
   the whole run (every spill is denied and takes its chances on the
   degraded home pools).  In this closed workload both twins eventually
   complete everything — the outage's cost is *tail containment*:
   severed traffic queues behind the dead pool and the p95 user latency
   inflates several-fold, while failover traffic pays only the link
   round trip.  The matrix records goodput/availability/tail per cell
   and pins that containment ratio — a behavioural claim over identical
   workloads, so any drift is a change, not noise.  The ``tri-steady``
   locality baseline rides along as the control.

2. **Parallel shard speedup.**  A four-region trace (25k requests per
   region, 100k total) runs serially and with ``parallel=4`` worker
   processes; both must produce bit-identical digests, and the wall
   ratio is the recorded speedup.  Every region carries a ``NodeCrash``
   schedule, which keeps each shard on the legacy event loop — the
   regime where shard-level parallelism matters (the columnar engine
   finishes 100k requests too fast for process fan-out to pay for
   itself).  The >= 2x acceptance floor is asserted only where it is
   physically possible (>= 4 usable cores); the artefact always records
   ``cpu_count`` next to the ratio so a 1-vCPU container's numbers are
   interpretable.

Headline metrics land in ``BENCH_PERF.json`` (section ``regions``) and
the longitudinal history via ``history.write_section``.

Smoke mode (fast CI tier): ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``)
shrinks the speedup trace to 600 requests per region, skips the floor,
and writes nothing.  The full trace carries the ``slow`` marker.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_regions.py -q -s
    PYTHONPATH=src python benchmarks/bench_regions.py --smoke
"""

import os
import time
from dataclasses import replace

import pytest

from history import write_section

from repro.analysis import format_table
from repro.service.regions import (
    MultiRegionSpec,
    RegionSpec,
    region_scenarios,
    run_multi_region,
)
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
    RegionPartition,
    ScenarioSpec,
    scenario_measurements,
)
from repro.service.simulation.scenarios import _tiered_configuration

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WORKERS = 4
#: Per-region request count for the speedup trace (x 4 regions).
TRACE_N = 600 if SMOKE else 25_000
#: Acceptance floor for the parallel speedup, asserted only when the
#: machine can physically deliver it (shards are CPU-bound; on fewer
#: cores than workers the fan-out cannot beat the serial loop).
SPEEDUP_FLOOR = 2.0
CPU_COUNT = os.cpu_count() or 1


def _speedup_spec():
    """Four symmetric regions, each pinned to the legacy engine.

    Each region keeps a two-node fast pool with one mid-run crash and
    recovery: the fault schedule forces the legacy event loop (the
    columnar engine declines faulted runs) without ever zeroing a pool,
    so no failover traffic skews the per-shard workload balance.
    """
    regions = []
    for i, name in enumerate(("us-east", "eu-west", "ap-south", "sa-east")):
        scenario = ScenarioSpec(
            name=f"speedup-{name}",
            arrivals=PoissonArrivals(50.0),
            n_requests=TRACE_N,
            pools={"fast": 2, "slow": 2},
            configuration=_tiered_configuration(),
            faults=(
                NodeCrash(
                    at_s=5.0 + i,
                    version="fast",
                    node_index=0,
                    recover_at_s=15.0 + i,
                ),
            ),
        )
        regions.append(RegionSpec(name=name, scenario=scenario))
    return MultiRegionSpec(name="speedup-trace", regions=tuple(regions), seed=97)


def _severed(spec):
    """The same spec with every failover link down for the whole run."""
    partitions = tuple(
        RegionPartition(region=name, start_s=0.0, end_s=float("inf"))
        for name in spec.region_names
    )
    return replace(spec, name=f"{spec.name}-severed", partitions=partitions)


def _goodput_row(name, report):
    summary = report.summary()
    return {
        "goodput_rps": summary["goodput_rps"],
        "availability": summary["availability"],
        "p95_user_latency_s": summary["p95_user_latency_s"],
        "n_failovers": summary["n_failovers"],
        "n_failover_denied": summary["n_failover_denied"],
        "n_engine_fallbacks": summary["n_engine_fallbacks"],
        "digest": report.digest(),
    }


def _run_goodput_matrix(measurements):
    scenarios = region_scenarios()
    outage = scenarios["regional-outage"]
    cells = {
        "tri-steady": run_multi_region(scenarios["tri-steady"], measurements),
        "outage-failover": run_multi_region(outage, measurements),
        "outage-severed": run_multi_region(_severed(outage), measurements),
        "partitioned-brownout": run_multi_region(
            scenarios["partitioned-brownout"], measurements
        ),
    }
    return {name: _goodput_row(name, report) for name, report in cells.items()}, cells


def _run_speedup(measurements):
    spec = _speedup_spec()
    start = time.perf_counter()
    serial = run_multi_region(spec, measurements)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_multi_region(spec, measurements, parallel=WORKERS)
    parallel_s = time.perf_counter() - start
    assert serial.digest() == parallel.digest(), (
        "parallel execution changed behaviour"
    )
    n = serial.n_requests
    return {
        "n_requests": n,
        "workers": WORKERS,
        "cpu_count": CPU_COUNT,
        "serial_wall_s": round(serial_s, 4),
        "parallel_wall_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 4),
        "serial_sim_rps": round(n / serial_s, 1),
        "parallel_sim_rps": round(n / parallel_s, 1),
        "digest": serial.digest(),
    }


def _emit(goodput, reports, speedup):
    print()
    print(
        format_table(
            ["scenario", "goodput", "avail.", "p95 user", "failovers",
             "denied", "fallbacks"],
            [
                [
                    name,
                    row["goodput_rps"],
                    row["availability"],
                    row["p95_user_latency_s"],
                    row["n_failovers"],
                    row["n_failover_denied"],
                    row["n_engine_fallbacks"],
                ]
                for name, row in goodput.items()
            ],
            title="REGIONS goodput matrix: locality vs failover",
            float_format=".3f",
        )
    )
    fallbacks = {
        name: report.engine_fallbacks()
        for name, report in reports.items()
        if report.engine_fallbacks()
    }
    if fallbacks:
        print(f"engine fallbacks by region: {fallbacks}")
    print(
        f"parallel shard speedup: {speedup['speedup']:.2f}x at "
        f"{speedup['workers']} workers on {speedup['n_requests']} requests "
        f"({speedup['serial_wall_s']:.2f}s -> {speedup['parallel_wall_s']:.2f}s, "
        f"{speedup['cpu_count']} cores)"
    )
    artifact = {
        "goodput": {
            name: {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in row.items()
            }
            for name, row in goodput.items()
        },
        "parallel": speedup,
    }
    write_section(
        "regions",
        {
            "goodput_rps": {
                name: round(row["goodput_rps"], 4)
                for name, row in goodput.items()
            },
            "availability": {
                name: round(row["availability"], 4)
                for name, row in goodput.items()
            },
            "failover_p95_containment": round(
                goodput["outage-severed"]["p95_user_latency_s"]
                / goodput["outage-failover"]["p95_user_latency_s"],
                4,
            ),
            "parallel": speedup,
        },
        smoke=SMOKE,
        artifact=artifact,
    )


def _assert_failover_pays(goodput):
    """Failover must beat the severed twin where the outage bites: the tail."""
    with_failover = goodput["outage-failover"]
    severed = goodput["outage-severed"]
    assert with_failover["n_failovers"] > 0
    assert severed["n_failovers"] == 0
    assert severed["n_failover_denied"] > 0
    assert with_failover["availability"] >= severed["availability"]
    assert with_failover["goodput_rps"] >= severed["goodput_rps"]
    # Identical workloads: severed traffic queues behind the dead pool,
    # failover traffic pays a 0.16 s round trip instead.  2x is a wide
    # margin under the canonical outage (measured ~8x).
    assert (
        with_failover["p95_user_latency_s"] * 2.0
        < severed["p95_user_latency_s"]
    )


@pytest.mark.skipif(
    not SMOKE, reason="smoke slice of the regions bench; the full tier runs it all"
)
def test_regions_smoke():
    """Fast-tier slice: full goodput matrix, shrunk speedup trace."""
    measurements = scenario_measurements()
    goodput, reports = _run_goodput_matrix(measurements)
    speedup = _run_speedup(measurements)
    _emit(goodput, reports, speedup)
    _assert_failover_pays(goodput)
    # The shipped outage scenario must actually leave the columnar
    # engine somewhere, or the fallback accounting pins nothing.
    assert goodput["outage-failover"]["n_engine_fallbacks"] >= 1


@pytest.mark.slow
def test_regions_full():
    measurements = scenario_measurements()
    goodput, reports = _run_goodput_matrix(measurements)
    speedup = _run_speedup(measurements)
    _emit(goodput, reports, speedup)
    _assert_failover_pays(goodput)
    assert speedup["n_requests"] >= 100_000
    if CPU_COUNT >= WORKERS:
        assert speedup["speedup"] >= SPEEDUP_FLOOR, speedup
    else:
        print(
            f"speedup floor skipped: {CPU_COUNT} cores cannot feed "
            f"{WORKERS} workers"
        )


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
