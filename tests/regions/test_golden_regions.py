"""Golden-pinned multi-region scenarios.

The three canonical :func:`region_scenarios` compositions are pinned to
SHA-256 digests of their merged multi-region behaviour (per-shard report
digests, routing counts, the boundary-event stream, region SLO entries)
checked into ``tests/regions/golden/``.  Regenerate after an intentional
behaviour change with::

    PYTHONPATH=src python -m pytest tests/regions/test_golden_regions.py \
        --update-golden
"""

import json
from pathlib import Path

import pytest

from oracle.golden import read_golden
from repro.contract import CONTRACT_VERSION
from repro.service.regions import region_scenarios, run_multi_region

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_REGION_SCENARIOS = (
    "tri-steady",
    "regional-outage",
    "partitioned-brownout",
)


def _golden_payload(name, report):
    """The digest plus readable context (only ``digest`` is asserted)."""
    summary = report.summary()
    return {
        "scenario": name,
        "contract_version": CONTRACT_VERSION,
        "digest": report.digest(),
        "headline": {
            "n_regions": summary["n_regions"],
            "n_requests": summary["n_requests"],
            "n_failovers": summary["n_failovers"],
            "n_failover_denied": summary["n_failover_denied"],
            "n_boundary_events": summary["n_boundary_events"],
            "n_region_slo_events": summary["n_region_slo_events"],
            "availability": round(summary["availability"], 6),
            "p95_user_latency_s": round(
                summary["p95_user_latency_s"], 9
            ),
            "total_cost": round(summary["total_cost"], 12),
        },
    }


@pytest.mark.parametrize("name", GOLDEN_REGION_SCENARIOS)
def test_golden_region_scenario(name, toy, update_golden):
    spec = region_scenarios()[name]
    report = run_multi_region(spec, toy, check_invariants=True)
    payload = _golden_payload(name, report)
    path = GOLDEN_DIR / f"{name}.json"

    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"golden file {path} is missing; generate it with "
        "`pytest tests/regions/test_golden_regions.py --update-golden`"
    )
    golden = read_golden(path)
    assert payload["digest"] == golden["digest"], (
        f"multi-region scenario {name!r} no longer reproduces its golden "
        "trace.\n"
        f"  golden : {golden['headline']}\n"
        f"  current: {payload['headline']}\n"
        "If this behaviour change is intentional, regenerate with "
        "--update-golden and explain the change in the commit message."
    )


def test_golden_scenarios_exercise_the_vocabulary(toy):
    """The pinned set covers locality, failover, denial and region SLOs."""
    scenarios = region_scenarios()
    steady = run_multi_region(scenarios["tri-steady"], toy)
    assert steady.n_failovers == 0
    assert steady.boundary_events == ()

    outage = run_multi_region(scenarios["regional-outage"], toy)
    assert outage.n_failovers > 0
    assert outage.shard("us-east").n_incoming == outage.n_failovers

    brownout = run_multi_region(scenarios["partitioned-brownout"], toy)
    assert brownout.n_failovers > 0
    kinds = {e.kind for e in brownout.boundary_events}
    assert {"failover", "partition", "partition-heal"} <= kinds
    assert any(s.slo_log for s in brownout.shards)


def test_golden_region_scenarios_are_seed_sensitive(toy):
    from dataclasses import replace

    spec = region_scenarios()["regional-outage"]
    base = run_multi_region(spec, toy)
    reseeded = run_multi_region(spec=replace(spec, seed=spec.seed + 1),
                                measurements=toy)
    assert base.digest() != reseeded.digest()
