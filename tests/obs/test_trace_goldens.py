"""Golden trace digests: the trace layer's own regression pin.

Report digests are pinned in ``tests/service/golden``; these goldens
pin the *trace* stream for three canonical runs.  Trace shape depends
on the run, not the loop: a fault scenario is traced per attempt, the
healthy baseline coarsely.  Every run drains columnar; the fault
scenarios' goldens must also come out of the scalar oracle, which
recorded them when they were pinned.  A file's name and ``"engine"``
field keep the loop that pinned it.

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
from oracle.scalar import default_loop, scalar_loop
from repro.contract import CONTRACT_VERSION
from repro.obs import TraceCollector, aggregate_breakdown
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: ``(scenario, the loop that pinned its file)`` pairs; a ``"legacy"``
#: file is a per-attempt trace, which both loops record.
GOLDEN_TRACES = (
    ("baseline", "columnar"),
    ("node-crash", "legacy"),
    ("gray-failure", "legacy"),
)

#: Each golden's runs: the default drain, and the scalar oracle for a
#: per-attempt trace.
GOLDEN_RUNS = [
    (name, engine, leg)
    for name, engine in GOLDEN_TRACES
    for leg in ("default", "oracle")
    if leg == "default" or engine == "legacy"
]


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


@pytest.mark.parametrize("name,engine,leg", GOLDEN_RUNS)
def test_golden_trace_digest(name, engine, leg, toy, update_golden):
    collector = TraceCollector()
    with default_loop() if leg == "default" else scalar_loop():
        report = run_scenario(_spec(name), toy, trace=collector)
    assert report.engine_used == ("columnar" if leg == "default" else "legacy")
    payload = _payload(name, engine, collector)
    path = GOLDEN_DIR / f"{name}-{engine}.json"

    if update_golden and leg == "default":
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
