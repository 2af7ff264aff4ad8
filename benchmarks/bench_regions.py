"""REGIONS — multi-region sharding: what failover buys.

The ``regional-outage`` canonical scenario runs twice: once as shipped
(the dead region's traffic spills across the link) and once with its
failover link severed for the whole run (every spill is denied and takes
its chances on the degraded home pools).  In this closed workload both
twins eventually complete everything — the outage's cost is *tail
containment*: severed traffic queues behind the dead pool and the p95
user latency inflates several-fold, while failover traffic pays only
the link round trip.  The matrix records goodput/availability/tail per
cell and pins that containment ratio — a behavioural claim over
identical workloads, so any drift is a change, not noise.  The
``tri-steady`` locality baseline rides along as the control.

Headline metrics land in ``BENCH_PERF.json`` (section ``regions``) and
the longitudinal history via ``history.write_section``.  Smoke mode
(fast CI tier): ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) runs the same
matrix and writes nothing.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_regions.py -q -s
    PYTHONPATH=src python benchmarks/bench_regions.py --smoke
"""

import os
from dataclasses import replace

import pytest

from history import write_section

from repro.analysis import format_table
from repro.service.regions import region_scenarios, run_multi_region
from repro.service.simulation import RegionPartition, scenario_measurements

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


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
    return {name: _goodput_row(name, report) for name, report in cells.items()}


def _emit(goodput):
    print()
    print(
        format_table(
            ["scenario", "goodput", "avail.", "p95 user", "failovers",
             "denied"],
            [
                [
                    name,
                    row["goodput_rps"],
                    row["availability"],
                    row["p95_user_latency_s"],
                    row["n_failovers"],
                    row["n_failover_denied"],
                ]
                for name, row in goodput.items()
            ],
            title="REGIONS goodput matrix: locality vs failover",
            float_format=".3f",
        )
    )
    artifact = {
        "goodput": {
            name: {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in row.items()
            }
            for name, row in goodput.items()
        },
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


def test_regions_goodput_matrix():
    """The goodput matrix and failover's tail containment; a full run
    writes the section."""
    goodput = _run_goodput_matrix(scenario_measurements())
    _emit(goodput)
    _assert_failover_pays(goodput)


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        # pytest imports this file afresh, so its SMOKE sees the flag.
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
