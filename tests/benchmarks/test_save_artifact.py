"""``benchmarks/conftest.py::save_artifact``: a smoke run writes nothing.

The paper-artefact and load benches write their rows through
``save_artifact``.  Some of those files are tracked full-run results, so
a ``REPRO_BENCH_SMOKE=1`` run must leave them as it found them, as
``history.write_section`` does for the other benches.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest(tmp_path, monkeypatch):
    """The benchmark harness's conftest, writing under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


def test_a_smoke_run_writes_no_artifact(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    assert bench_conftest.save_artifact("load_latency_sweep", {"sweep": []}) is None
    assert list(tmp_path.iterdir()) == []


def test_a_full_run_writes_the_artifact(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    path = bench_conftest.save_artifact("load_latency_sweep", {"sweep": [1.5]})
    assert path == tmp_path / "results" / "load_latency_sweep.json"
    assert json.loads(path.read_text()) == {"sweep": [1.5]}
