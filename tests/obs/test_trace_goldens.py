"""Golden trace digests: the trace layer's own regression pin.

Report digests are pinned in ``tests/service/golden``; these goldens
pin the *trace* stream for three canonical runs.  Trace shape depends
on the loop that ran (per-attempt live recording vs coarse columnar
reconstruction), and each run picks its loop itself: the fault
scenarios fall back to the scalar loop, the healthy baseline takes the
columnar one.  The golden's name and ``"engine"`` field record which,
and the test checks the run still picks that loop.

A golden carries the ``contract_version`` it was digested under and is
read through ``oracle.golden.read_golden``.  Regenerate after an
intentional trace-shape change or a contract bump::

    PYTHONPATH=src python -m pytest tests/obs/test_trace_goldens.py \
        --update-golden
"""

import json
from pathlib import Path

import pytest

from oracle.golden import read_golden
from repro.contract import CONTRACT_VERSION
from repro.obs import TraceCollector, aggregate_breakdown
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: ``(scenario, loop it picks)`` pairs pinned to trace digests.
GOLDEN_TRACES = (
    ("baseline", "columnar"),
    ("node-crash", "legacy"),
    ("gray-failure", "legacy"),
)


def _spec(name):
    scenarios = dict(canonical_scenarios())
    scenarios.update(chaos_scenarios())
    return scenarios[name]


def _payload(name, engine, collector):
    outcomes = {}
    for trace in collector.traces:
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
    classes = {
        cls: row["count"]
        for cls, row in aggregate_breakdown(collector).items()
    }
    return {
        "scenario": name,
        "engine": engine,
        "contract_version": CONTRACT_VERSION,
        "digest": collector.digest(),
        "headline": {
            "n_traces": len(collector),
            "n_run_events": len(collector.run_events),
            "outcomes": outcomes,
            "classes": classes,
        },
    }


@pytest.mark.parametrize("name,engine", GOLDEN_TRACES)
def test_golden_trace_digest(name, engine, toy, update_golden):
    collector = TraceCollector()
    report = run_scenario(_spec(name), toy, trace=collector)
    assert report.engine_used == engine
    payload = _payload(name, engine, collector)
    path = GOLDEN_DIR / f"{name}-{engine}.json"

    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"golden trace file {path} is missing; generate it with "
        "`pytest tests/obs/test_trace_goldens.py --update-golden`"
    )
    golden = read_golden(path)
    assert payload["digest"] == golden["digest"], (
        f"trace digest for {name!r} ({engine}) changed: the recorded span "
        "stream differs from the pinned golden.  If the change is "
        "intentional, regenerate with --update-golden.\n"
        f"golden headline: {golden['headline']}\n"
        f"current headline: {payload['headline']}"
    )
    assert payload["headline"] == golden["headline"]
