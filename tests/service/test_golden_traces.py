"""Golden-trace regression tests for the serving simulator.

Three canonical scenarios — the healthy ``baseline``, the ``node-crash``
degraded mode and the ``flaky`` retry storm — are pinned to SHA-256
digests of their full simulated behaviour (arrival times, routing
decisions, completion order, retries, total cost) checked into
``tests/service/golden/``.  The engine's determinism contract says the
same seed and spec must reproduce those digests exactly; any diff means
simulated *behaviour* changed, deliberately or not.

To regenerate after an intentional engine change::

    PYTHONPATH=src python -m pytest tests/service/test_golden_traces.py \
        --update-golden

and see ``tests/service/golden/README.md`` for when that is legitimate.
"""

import json
from pathlib import Path

import pytest

from oracle.golden import read_golden
from repro.contract import CONTRACT_VERSION
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
    scenario_measurements,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The pinned scenarios: one healthy control, one crash, one retry storm.
GOLDEN_SCENARIOS = ("baseline", "node-crash", "flaky")

#: The pinned chaos vocabulary: one golden per first-class fault type.
CHAOS_GOLDEN_SCENARIOS = (
    "gray-failure",
    "cascade",
    "retry-storm",
    "cold-start",
    "thundering-herd",
)


def _scenario(name):
    scenarios = canonical_scenarios()
    if name in scenarios:
        return scenarios[name]
    return chaos_scenarios()[name]


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


def _golden_payload(name, report):
    """What a golden file records: the digest plus readable context.

    Only ``digest`` is asserted on; the headline numbers exist so a human
    reading a golden diff can see roughly *what* changed.
    """
    summary = report.summary()
    return {
        "scenario": name,
        "contract_version": CONTRACT_VERSION,
        "digest": report.digest(),
        "headline": {
            "n_requests": summary["n_requests"],
            "availability": round(summary["availability"], 6),
            "total_retries": summary["total_retries"],
            "p95_latency_s": round(summary["p95_latency_s"], 9),
            "mean_invocation_cost": round(
                summary["mean_invocation_cost"], 12
            ),
            "escalation_rate": round(summary["escalation_rate"], 6),
            "n_fault_events": summary["n_fault_events"],
            "n_retry_denied": summary["n_retry_denied"],
        },
    }


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS + CHAOS_GOLDEN_SCENARIOS)
def test_golden_trace(name, toy, update_golden):
    spec = _scenario(name)
    report = run_scenario(spec, toy, check_invariants=True)
    payload = _golden_payload(name, report)
    path = GOLDEN_DIR / f"{name}.json"

    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"golden file {path} is missing; generate it with "
        "`pytest tests/service/test_golden_traces.py --update-golden`"
    )
    golden = read_golden(path)
    assert payload["digest"] == golden["digest"], (
        f"scenario {name!r} no longer reproduces its golden trace.\n"
        f"  golden : {golden['headline']}\n"
        f"  current: {payload['headline']}\n"
        "If this behaviour change is intentional, regenerate with "
        "--update-golden and explain the change in the commit message; "
        "see tests/service/golden/README.md."
    )


def test_golden_traces_are_seed_sensitive(toy):
    """Sanity: the digest actually discriminates different behaviour."""
    from dataclasses import replace

    spec = canonical_scenarios()["baseline"]
    base = run_scenario(spec, toy)
    reseeded = run_scenario(replace(spec, seed=spec.seed + 1), toy)
    assert base.digest() != reseeded.digest()
