"""The report's engine bookkeeping: which engine ran it.

``LoadTestReport.engine_used`` says which loop drained the run: the
columnar one for every run ``drain()`` serves, traced or not, and the
scalar loop only under the test suite's oracle, whose report alone sets
``fallback_reason``.  Neither field enters the digest: *how* a run
executed is bit-irrelevant to *what* it produced.
"""

from dataclasses import replace

import pytest

from oracle.scalar import REASON, default_loop, scalar_loop
from repro.obs import TraceCollector
from repro.service.control import default_control_spec
from repro.service.simulation import (
    AutoscalerConfig,
    TransientFaults,
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
    with default_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None


def test_traced_fault_run_reports_columnar(toy):
    spec = canonical_scenarios()["node-crash"]
    with default_loop():
        report = run_scenario(spec, toy, trace=TraceCollector())
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None
    with scalar_loop():
        assert report.digest() == run_scenario(spec, toy).digest()


def test_autoscaled_run_reports_columnar(toy):
    spec = canonical_scenarios()["diurnal"]
    with default_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None
    assert report.scaling_events


def test_window_fault_run_reports_columnar(toy):
    spec = canonical_scenarios()["node-crash"]
    with default_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None


def test_completion_fault_run_reports_columnar(toy):
    spec = canonical_scenarios()["flaky"]
    with default_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "columnar"
    assert report.fallback_reason is None


#: A closed-loop spec drains columnar whatever it also carries: a fault
#: that fails completions, an autoscaler, a trace.
_CLOSED_LOOP_EXTRAS = {
    "plain": {},
    "transient": {
        "faults": (TransientFaults(start_s=1.0, end_s=4.0, failure_probability=0.2),)
    },
    "autoscaler": {"autoscaler_config": AutoscalerConfig(min_nodes=1, max_nodes=3)},
    "trace": {},
}


@pytest.mark.parametrize("extra", sorted(_CLOSED_LOOP_EXTRAS))
def test_control_plane_run_reports_its_loop(extra, toy):
    spec = replace(
        canonical_scenarios()["baseline"],
        control=default_control_spec(),
        **_CLOSED_LOOP_EXTRAS[extra],
    )
    with default_loop():
        report = run_scenario(
            spec, toy, trace=TraceCollector() if extra == "trace" else None
        )
    assert (report.engine_used, report.fallback_reason) == ("columnar", None)
    with scalar_loop():
        assert report.digest() == run_scenario(spec, toy).digest()


def test_scalar_oracle_reports_its_reason(toy):
    spec = canonical_scenarios()["baseline"]
    with scalar_loop():
        report = run_scenario(spec, toy)
    assert report.engine_used == "legacy"
    assert report.fallback_reason == REASON


def test_engine_fields_stay_out_of_the_digest(toy):
    spec = canonical_scenarios()["baseline"]
    with default_loop():
        columnar = run_scenario(spec, toy)
    with scalar_loop():
        legacy = run_scenario(spec, toy)
    assert columnar.engine_used != legacy.engine_used
    assert columnar.digest() == legacy.digest()


def test_from_columns_defaults_engine_fields(toy):
    spec = canonical_scenarios()["baseline"]
    report = run_scenario(spec, toy)
    rebuilt = LoadTestReport(
        columns=report.columns,
        final_pool_sizes=dict(report.final_pool_sizes),
    )
    assert rebuilt.engine_used is None
    assert rebuilt.fallback_reason is None
    assert rebuilt.digest() == report.digest()
