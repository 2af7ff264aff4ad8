"""The report's engine bookkeeping: which engine ran, and why it fell back.

``LoadTestReport.engine_used`` / ``fallback_reason`` surface what the
simulator previously only kept on itself — so multi-region merges, bench
output and plain callers can aggregate fallback counts without holding
the simulator.  Neither field enters the digest: *how* a run executed is
bit-irrelevant to *what* it produced.
"""

import pytest

from repro.service.simulation import (
    canonical_scenarios,
    run_scenario,
    scenario_measurements,
)
from repro.service.simulation.report import LoadTestReport


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


def test_columnar_run_reports_engine(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy, engine="columnar")
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None


def test_fallback_reports_reason(toy):
    spec = canonical_scenarios()["node-crash"]
    report = run_scenario(spec, toy, engine="columnar")
    assert report.engine_used == "legacy"
    assert report.fallback_reason is not None
    assert "NodeCrash" in report.fallback_reason


def test_explicit_legacy_reports_no_fallback(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy, engine="legacy")
    assert report.engine_used == "legacy"
    assert report.fallback_reason is None


def test_engine_fields_stay_out_of_the_digest(toy):
    spec = canonical_scenarios()["baseline"]
    columnar = run_scenario(spec, toy, engine="columnar")
    legacy = run_scenario(spec, toy, engine="legacy")
    assert columnar.engine_used != legacy.engine_used
    assert columnar.digest() == legacy.digest()


def test_from_columns_defaults_engine_fields(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy, engine="columnar")
    rebuilt = LoadTestReport(
        columns=report.columns,
        final_pool_sizes=dict(report.final_pool_sizes),
    )
    assert rebuilt.engine_used is None
    assert rebuilt.fallback_reason is None
    assert rebuilt.digest() == report.digest()
