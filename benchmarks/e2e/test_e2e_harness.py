"""Self-tests of the end-to-end benchmark harness (tier-1, a few seconds).

Every workload runs through the real code path at ``--scale 0.01``; the
numbers are meaningless at that size (results are stamped ``scaled`` and
``compare.py`` refuses them) but names, units, checks and determinism are
exactly what a full run produces.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import compare
import harness
import pytest
import run
from spans import SpanRecorder
from workloads import WORKLOADS

SCALE = 0.01
MANIFEST = run.load_manifest()
END_TO_END = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}

#: Per workload, layer metrics that must come out non-zero: the layers the
#: workload exists to exercise (README "Workloads").
MUST_REPORT = {
    "steady_fixed": [
        "core.tables_s",
        "simulation.engine_s",
        "simulation.digest_s",
        "simulation.summary_s",
        "simulation.columnar_share",
    ],
    "tiered_session": [
        "core.rulegen_s",
        "core.rulegen_trials",
        "core.route_us",
        "gateway.submit_s",
        "gateway.resolve_s",
        "simulation.engine_s",
    ],
    "chaos_control": [
        "simulation.static_twin_s",
        "simulation.n_fault_events",
        "control.overhead_x",
        "control.ticks",
        "control.snapshot_us",
        "control.n_log_entries",
    ],
    "regions_failover": [
        "regions.plan_s",
        "regions.shards_s",
        "regions.merge_s",
        "regions.task_pickle_mb",
        "regions.parallel2_s",
        "regions.n_failovers",
        "regions.legacy_shards",
    ],
    "traced_export": [
        "obs.record_s",
        "obs.spans",
        "obs.export_mb",
        "obs.load_s",
        "obs.critical_path_s",
        "simulation.engine_s",
    ],
}


def _measure(name, tmp_path, *, seed=11, trace=True):
    return harness.measure(
        name,
        seed=seed,
        seconds=0.0,
        trace=trace,
        scale=SCALE,
        once_checks=True,
        out_dir=tmp_path,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced in-process measurement per workload."""
    out = tmp_path_factory.mktemp("e2e")
    return {name: _measure(name, out) for name in WORKLOADS}, out


def test_manifest_meets_the_driver_contract():
    assert set(MANIFEST) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = (
        [w["name"] for w in MANIFEST["workloads"]] + END_TO_END + list(PER_LAYER)
    )
    assert len(set(names)) == len(names)
    assert all(name_re.match(n) for n in names)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert unit_re.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert set(run.ESTIMATORS) == set(END_TO_END)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert all(
        not part.startswith("/") and ".." not in part for part in MANIFEST["command"]
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_checks_pass_and_layers_are_named(traced, name):
    results, out = traced
    result = results[name]
    assert result["failed_checks"] == []
    assert result["attempted"] >= 4
    assert result["scaled"] is True
    assert len(result["walls"]) >= harness.MIN_REPS
    # One calibration probe on each side of every repetition.
    assert len(result["probes"]) == len(result["walls"]) + 1
    wall, before, after = result["walls"][0], *result["probes"][:2]
    assert result["normalised_walls"][0] == pytest.approx(
        wall / ((before + after) / 2) * harness.PROBE_REF_S
    )
    layers = result["layers"]
    # Every number a workload reports under a manifest name is a real
    # number, and the layers it exists to exercise are all there.
    for metric in MUST_REPORT[name]:
        assert layers[metric] > 0.0, metric
    for metric in ("sim_p95_latency_s", "sim_goodput_rps", "sim_cost_per_req"):
        assert layers[metric] > 0.0
    assert all(isinstance(v, (int, float)) for v in layers.values())
    spans = [
        json.loads(line)
        for line in (out / f"{name}.spans.jsonl").read_text().splitlines()
    ]
    assert {s["workload"] for s in spans} == {name}
    assert {"setup", "pipeline"} <= {s["name"] for s in spans if s["parent"] is None}


def test_every_manifest_layer_metric_is_reported_by_some_workload(traced):
    results, _ = traced
    reported = {
        metric
        for result in results.values()
        for metric, value in result["layers"].items()
        if metric in PER_LAYER and value != 0
    }
    # failed_share is added by the parent; n_shed and n_denied are zero on
    # these workloads by design (degrade admission, an open second link).
    assert set(PER_LAYER) - reported <= {
        "failed_share",
        "control.n_shed",
        "regions.n_denied",
    }


def test_sim_metrics_repeat_for_a_seed_and_move_with_it(traced, tmp_path):
    results, _ = traced
    again = _measure("steady_fixed", tmp_path, trace=False)
    other = _measure("steady_fixed", tmp_path, seed=12, trace=False)
    first = results["steady_fixed"]
    assert (again["digest"], again["sim"]) == (first["digest"], first["sim"])
    assert other["digest"] != first["digest"]
    assert other["sim"] != first["sim"]
    assert "layers" not in again


def test_cli_children_are_fresh_processes_with_fixed_hash_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILDREN", 2)  # each child costs a cold import
    result = run.run_workload(
        "chaos_control", seed=11, seconds=0.3, trace=False, scale=SCALE, out_dir=tmp_path
    )
    assert [c["pythonhashseed"] for c in result["children"]] == ["0"] * run.CHILDREN
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["scaled"] is True
    line = json.loads(run._driver_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == units[metric] and entry["value"] > 0.0
    assert len(result["samples"]["setup_s"]) == run.CHILDREN
    assert not list(tmp_path.glob("chaos_control-*")), "temp dirs are removed"


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    shutil.copy(run.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_fixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tampered_result_is_a_failed_check_not_a_crash(tmp_path):
    """A backend that loses one record must show up in failed checks."""

    class DropsOneRecord:
        def __init__(self, backend):
            self._backend = backend

        def __getattr__(self, name):
            return getattr(self._backend, name)

        def drain(self):
            report = self._backend.drain()
            return dataclasses.replace(report, records=list(report.records)[1:])

    workload = WORKLOADS["tiered_session"](11, SCALE, SpanRecorder("t"), tmp_path)
    honest = workload.rep_checks(workload.pipeline())
    assert all(honest.values())
    workload.wrap_backend = DropsOneRecord
    tampered = workload.rep_checks(workload.pipeline())
    assert not all(tampered.values())
    assert tampered["every ticket resolved"], "the lost ticket resolves with an error"


def test_compare_verdicts():
    judge = lambda a, b, **kw: compare.verdict(  # noqa: E731
        min(a), min(b), a, b, bound=0.1, better="lower", **kw
    )
    steady = [1.00, 1.01, 1.02, 1.01]
    assert judge(steady, [1.03, 1.04, 1.05, 1.04]) == "same"
    assert judge(steady, [1.20, 1.21, 1.22, 1.21]) == "worse"
    assert judge(steady, [0.80, 0.81, 0.82, 0.81]) == "better"
    noisy = [1.0, 1.5, 1.0, 1.6, 1.1]
    assert judge(noisy, [1.05, 1.4, 1.1, 1.7, 1.0]) == "unresolved"
    # Spread wider than the bound, but every run of one side wins.
    assert judge(noisy, [0.5, 0.6, 0.7, 0.8, 0.9]) == "better"
    assert (
        compare.verdict(10.0, 12.0, [10.0] * 3, [12.0] * 3, bound=0.1, better="higher")
        == "better"
    )


def _results(wall, *, sim=0.25, scaled=False):
    workload = {
        "end_to_end": {n: {"value": wall, "unit": "s"} for n in END_TO_END},
        "samples": {n: [wall, wall * 1.01, wall * 1.02] for n in END_TO_END},
        "per_layer": {
            n: {"value": sim if n == "sim_p95_latency_s" else 1.0, "unit": m["unit"]}
            for n, m in PER_LAYER.items()
        },
        "failed_checks": [],
    }
    return {"scaled": scaled, "workloads": {n: workload for n in WORKLOADS}}


def test_compare_cli(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    base = write("a.json", _results(1.0))
    assert compare.main([base, write("same.json", _results(1.02))]) == 0
    assert compare.main([base, write("slow.json", _results(1.5))]) == 1
    assert "worse" in capsys.readouterr().out
    # An exact metric that moved is a mismatch however small the move.
    assert compare.main([base, write("sim.json", _results(1.0, sim=0.2500001))]) == 1
    assert "MISMATCH" in capsys.readouterr().out
    assert compare.main([base, write("scaled.json", _results(1.0, scaled=True))]) == 2
    assert compare.is_exact("control.ticks", "count")
    assert not compare.is_exact("wall_s", "s")
