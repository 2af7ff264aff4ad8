"""Edge-case tests for benchmarks/history.py — the longitudinal store.

Covers the ISSUE acceptance list: empty history, single entry, mixed
smoke/full, an injected changepoint detected by the
``ConfidenceTest``-conditioned scan (and an all-noise history NOT
flagged), machine-metadata mismatch warnings — plus the gateway-export
seam that lets live sessions share the benchmark-history schema, the
end-to-end ``results.json`` reader behind ``history.py append``, and the
one writer (``write_section``) every non-serving bench goes through.
"""

import json

import numpy as np
import pytest

import compare_perf
import history
from repro.core.errors import HistoryFileError, TierError
from repro.stats.confidence import ConfidenceTest


MACHINE_A = {"hostname": "box-a", "platform": "linux", "python": "3", "cpu_count": 8}
MACHINE_B = {"hostname": "box-b", "platform": "linux", "python": "3", "cpu_count": 96}


def make_entry(value, *, timestamp, smoke=False, source="bench_perf",
               branch="main", machine=MACHINE_A,
               label="policy_evaluation.rows_per_s"):
    return history.entry_from_metrics(
        {label: float(value)},
        source=source,
        smoke=smoke,
        engine="columnar",
        timestamp=timestamp,
        machine=machine,
        git={"commit": "abc123", "branch": branch},
    )


class TestAppendLoadRoundtrip:
    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entry = make_entry(100.0, timestamp=1000.0, smoke=True)
        history.append_entry(entry, path)
        (loaded,) = history.load_history(path)
        assert loaded == entry

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "results" / "deep" / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0), path)
        assert path.exists()
        assert len(history.load_history(path)) == 1

    def test_record_run_flattens_and_appends(self, tmp_path):
        path = tmp_path / "h.jsonl"
        payload = {"policy_evaluation": {"rows_per_s": 123.0, "smoke": True}}
        entry = history.record_run(
            payload,
            source="bench_perf",
            smoke=True,
            path=path,
            timestamp=5.0,
            machine=MACHINE_A,
            git={"commit": "c", "branch": "main"},
        )
        assert entry.metrics == {"policy_evaluation.rows_per_s": 123.0}
        (loaded,) = history.load_history(path)
        assert loaded.metrics == entry.metrics
        assert loaded.smoke is True

    def test_entries_load_sorted_by_timestamp(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for ts in (3.0, 1.0, 2.0):
            history.append_entry(make_entry(ts, timestamp=ts), path)
        loaded = history.load_history(path)
        assert [e.timestamp for e in loaded] == [1.0, 2.0, 3.0]


class TestLoadTolerance:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert history.load_history(tmp_path / "nope.jsonl") == []

    def test_empty_file_is_empty_history(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("")
        assert history.load_history(path) == []

    def test_single_entry_history(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(42.0, timestamp=1.0), path)
        (entry,) = history.load_history(path)
        assert entry.metrics["policy_evaluation.rows_per_s"] == 42.0

    def test_malformed_line_raises_a_structured_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0), path)
        with path.open("a") as handle:
            handle.write('{"truncated": \n')  # crashed mid-write
        history.append_entry(make_entry(2.0, timestamp=2.0), path)
        with pytest.raises(HistoryFileError) as caught:
            history.load_history(path)
        error = caught.value
        assert (error.path, error.line) == (str(path), 2)
        assert "not a history entry" in error.reason
        assert isinstance(error, TierError) and isinstance(error, ValueError)

    def test_valid_json_that_is_not_an_entry_raises_too(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"timestamp": 1.0, "source": "x"}\n')  # no metrics
        with pytest.raises(HistoryFileError, match="line 1"):
            history.load_history(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0), path)
        with path.open("a") as handle:
            handle.write("\n\n")
        history.append_entry(make_entry(2.0, timestamp=2.0), path)
        assert len(history.load_history(path)) == 2


class TestFilters:
    def seeded(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0, smoke=False), path)
        history.append_entry(make_entry(2.0, timestamp=2.0, smoke=True), path)
        history.append_entry(
            make_entry(3.0, timestamp=3.0, source="bench_resilience"), path
        )
        history.append_entry(
            make_entry(4.0, timestamp=4.0, branch="feature"), path
        )
        return path

    def test_smoke_filter_separates_measurement_regimes(self, tmp_path):
        path = self.seeded(tmp_path)
        smoke = history.load_history(path, smoke=True)
        full = history.load_history(path, smoke=False)
        assert [e.timestamp for e in smoke] == [2.0]
        assert [e.timestamp for e in full] == [1.0, 3.0, 4.0]

    def test_source_filter(self, tmp_path):
        loaded = history.load_history(self.seeded(tmp_path), source="bench_resilience")
        assert [e.timestamp for e in loaded] == [3.0]

    def test_branch_filter(self, tmp_path):
        loaded = history.load_history(self.seeded(tmp_path), branch="feature")
        assert [e.timestamp for e in loaded] == [4.0]

    def test_filters_compose(self, tmp_path):
        loaded = history.load_history(
            self.seeded(tmp_path), smoke=False, branch="main"
        )
        assert [e.timestamp for e in loaded] == [1.0, 3.0]


class TestMetricSeries:
    def test_absent_labels_are_simply_missing(self, tmp_path):
        # A schema addition must not read as a changepoint: older
        # entries without the label contribute nothing, not zeros.
        entries = [
            make_entry(1.0, timestamp=1.0),
            history.entry_from_metrics(
                {"policy_evaluation.rows_per_s": 2.0, "brand.new_metric": 9.0},
                source="bench_perf",
                smoke=False,
                timestamp=2.0,
                machine=MACHINE_A,
                git={"commit": "c", "branch": "main"},
            ),
        ]
        assert history.metric_series(entries, "policy_evaluation.rows_per_s") == [1.0, 2.0]
        assert history.metric_series(entries, "brand.new_metric") == [9.0]
        assert history.metric_series(entries, "never.recorded") == []

    def test_metric_labels_union(self):
        entries = [
            make_entry(1.0, timestamp=1.0, label="b.y"),
            make_entry(2.0, timestamp=2.0, label="a.x"),
        ]
        assert history.metric_labels(entries) == ["a.x", "b.y"]


class TestFlattenMetrics:
    def test_nested_dicts_become_dotted_labels(self):
        flat = history.flatten_metrics(
            {"control_plane": {"goodput_rps": {"spike": 5.0, "static": 7}}}
        )
        assert flat == {
            "control_plane.goodput_rps.spike": 5.0,
            "control_plane.goodput_rps.static": 7.0,
        }

    def test_smoke_tag_bools_and_strings_are_dropped(self):
        flat = history.flatten_metrics(
            {
                "resilience": {
                    "smoke": True,
                    "goodput_retention": 0.9,
                    "engine": "columnar",
                    "converged": False,
                }
            }
        )
        assert flat == {"resilience.goodput_retention": 0.9}

    def test_zero_values_are_kept(self):
        # The compare_perf silent-skip bug must not be reintroduced one
        # layer down: a 0.0 is a metric value, not an absence.
        flat = history.flatten_metrics({"resilience": {"time_to_recover_s": 0.0}})
        assert flat == {"resilience.time_to_recover_s": 0.0}


class TestEntryMetadata:
    def test_engine_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "event")
        entry = history.entry_from_metrics(
            {"a.b": 1.0}, source="bench_perf", smoke=False,
            timestamp=1.0, machine=MACHINE_A, git={"commit": "c", "branch": "m"},
        )
        assert entry.engine == "event"

    def test_engine_defaults_to_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        entry = history.entry_from_metrics(
            {"a.b": 1.0}, source="bench_perf", smoke=False,
            timestamp=1.0, machine=MACHINE_A, git={"commit": "c", "branch": "m"},
        )
        assert entry.engine == "columnar"

    def test_defaults_fill_machine_git_and_timestamp(self):
        entry = history.entry_from_metrics(
            {"a.b": 1.0}, source="bench_perf", smoke=False
        )
        assert entry.machine == history.machine_fingerprint()
        assert entry.commit and entry.branch  # real repo: non-empty
        assert entry.timestamp > 0
        assert entry.schema == history.SCHEMA_VERSION

    def test_git_metadata_in_this_repo(self):
        meta = history.git_metadata()
        assert set(meta) == {"commit", "branch"}
        assert meta["commit"] != "unknown"
        assert len(meta["commit"]) == 40

    def test_git_metadata_outside_a_repo(self, tmp_path):
        meta = history.git_metadata(cwd=tmp_path)
        assert meta == {"commit": "unknown", "branch": "unknown"}


class TestMachineMismatch:
    def test_single_machine_history_is_quiet(self):
        entries = [make_entry(i, timestamp=i) for i in range(3)]
        assert history.machine_mismatch_warnings(entries) == []
        assert history.machine_mismatch_warnings(entries, current=MACHINE_A) == []

    def test_mixed_machines_warn(self):
        entries = [
            make_entry(1.0, timestamp=1.0, machine=MACHINE_A),
            make_entry(2.0, timestamp=2.0, machine=MACHINE_B),
        ]
        (warning,) = history.machine_mismatch_warnings(entries)
        assert "2 machine fingerprints" in warning
        assert "box-a" in warning and "box-b" in warning

    def test_current_machine_absent_warns(self):
        entries = [make_entry(1.0, timestamp=1.0, machine=MACHINE_A)]
        warnings = history.machine_mismatch_warnings(entries, current=MACHINE_B)
        assert len(warnings) == 1
        assert "box-b" in warnings[0]
        assert "no entries" in warnings[0]

    def test_empty_history_never_warns(self):
        assert history.machine_mismatch_warnings([], current=MACHINE_A) == []


class TestDetectChangepoints:
    LABEL = "rule_generator.trials_per_s"

    def entries_from(self, values):
        return [
            make_entry(v, timestamp=float(i), label=self.LABEL)
            for i, v in enumerate(values)
        ]

    def test_injected_step_in_twenty_run_history_is_flagged(self):
        # The ISSUE acceptance criterion: 20 runs, a step injected at
        # run 12, detected by the ConfidenceTest-conditioned scan.
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                rng.normal(100.0, 1.0, size=12),
                rng.normal(110.0, 1.0, size=8),
            ]
        )
        found = history.detect_changepoints(self.entries_from(values))
        assert self.LABEL in found
        step = found[self.LABEL]
        assert step.index == 12
        assert step.shift == pytest.approx(10.0, abs=2.0)

    def test_all_noise_twenty_run_history_is_not_flagged(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = rng.normal(100.0, 1.0, size=20)
            found = history.detect_changepoints(self.entries_from(values))
            assert found == {}, f"seed {seed} false-positive: {found}"

    def test_short_history_cannot_flag(self):
        values = [100.0] * 4 + [200.0] * 4  # 8 < 2 * min_segment
        assert history.detect_changepoints(self.entries_from(values)) == {}

    def test_labels_argument_restricts_the_scan(self):
        values = [100.0] * 10 + [200.0] * 10
        found = history.detect_changepoints(
            self.entries_from(values), labels=["some.other_metric"]
        )
        assert found == {}

    def test_confidence_test_sets_the_bar(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.normal(100.0, 1.0, size=10), rng.normal(101.0, 1.0, size=10)]
        )
        entries = self.entries_from(values)
        loose = history.detect_changepoints(
            entries, test=ConfidenceTest(confidence=0.8)
        )
        strict = history.detect_changepoints(
            entries, test=ConfidenceTest(confidence=0.999)
        )
        assert self.LABEL in loose
        assert self.LABEL not in strict


class TestGatewayExportSeam:
    """MetricsExporter.history_record output feeds entry_from_metrics."""

    def test_gateway_record_roundtrips_through_the_history(self, tmp_path):
        from repro.service.control import MetricsExporter, TelemetryHub
        from repro.service.simulation import RequestRecord

        hub = TelemetryHub(window_s=10.0)
        for i in range(12):
            hub.publish(
                RequestRecord(
                    request_id=f"r{i}",
                    payload=f"r{i}",
                    tier=0.05,
                    arrival_s=0.1 * i,
                    finished_s=0.1 * i + 0.1,
                    response_time_s=0.1,
                    queue_wait_s=0.0,
                    versions_used=("fast",),
                    escalated=False,
                    invocation_cost=1e-5,
                    node_seconds={"fast": 0.1},
                    failed=False,
                    shed=False,
                    degraded=False,
                )
            )
        body = MetricsExporter(hub).history_record(2.0, smoke=False)

        path = tmp_path / "h.jsonl"
        entry = history.entry_from_metrics(
            body["metrics"],
            source=body["source"],
            smoke=body["smoke"],
            timestamp=2.0,
            machine=MACHINE_A,
            git={"commit": "c", "branch": "main"},
        )
        history.append_entry(entry, path)

        (loaded,) = history.load_history(path, source="gateway")
        series = history.metric_series([loaded], "gateway.goodput_rps")
        assert len(series) == 1 and series[0] > 0.0

    def test_schema_matches_the_committed_artifact_shape(self, tmp_path):
        # A history line is plain JSON with the documented keys, so the
        # file stays greppable and diff-able.
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0), path)
        raw = json.loads(path.read_text().strip())
        assert set(raw) == {
            "schema", "timestamp", "source", "commit", "branch",
            "machine", "engine", "smoke", "metrics",
        }
        assert raw["schema"] == history.SCHEMA_VERSION


RESULTS = {
    "seed": 11,
    "seconds": 12,
    "scaled": False,
    "machine": {
        "nproc": 2,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "platform": "Linux-test",
    },
    "workloads": {
        "steady_fixed": {
            "end_to_end": {
                "wall_s": {"value": 0.074, "unit": "s"},
                "peak_rss_mb": {"value": 121.0, "unit": "MiB"},
                "setup_s": {"value": 1.16, "unit": "s"},
            },
            "samples": {"wall_s": [0.073, 0.074, 0.075]},
            "per_layer": {
                "simulation.engine_s": {"value": 0.048, "unit": "s"},
                "simulation.columnar_share": {"value": 1, "unit": "ratio"},
            },
            "attempted": 40,
            "failed_checks": [],
        }
    },
}


class TestE2ERows:
    """``benchmarks/e2e/run.py``'s results.json is a history input."""

    def write(self, tmp_path, results=RESULTS):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(results))
        return path

    def test_append_roundtrip(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        assert history.main(["append", str(self.write(tmp_path))], path=hist) == 0
        assert "5 e2e metrics" in capsys.readouterr().out
        (entry,) = history.load_history(hist, source="e2e", smoke=False)
        assert history.metric_series([entry], "e2e.steady_fixed.wall_s") == [0.074]
        assert entry.metrics["e2e.steady_fixed.simulation.engine_s"] == 0.048
        assert entry.metrics["e2e.steady_fixed.simulation.columnar_share"] == 1.0
        # The machine the file ran on, NumPy included, under this host.
        assert entry.machine["numpy"] == "2.4.6"
        assert entry.machine["cpu_count"] == 2
        assert entry.machine["platform"] == "Linux-test"
        assert entry.machine["hostname"] == history.machine_fingerprint()["hostname"]

    def test_scaled_file_is_refused(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        scaled = self.write(tmp_path, dict(RESULTS, scaled=True))
        assert history.main(["append", str(scaled)], path=hist) == 2
        assert "scaled" in capsys.readouterr().err
        assert not hist.exists()

    def test_missing_file_and_bad_usage_exit_2(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        assert history.main(["append", str(tmp_path / "nope.json")], path=hist) == 2
        assert history.main(["prepend", "x"], path=hist) == 2
        assert "usage" in capsys.readouterr().err
        assert not hist.exists()


class TestWriteSection:
    """One writer; a smoke run leaves every file as it found it."""

    BODY = {"rows_per_s": 123.0, "wall_s": 0.5}

    def paths(self, tmp_path):
        return dict(
            bench_perf=tmp_path / "BENCH_PERF.json",
            results_dir=tmp_path / "results",
            history_path=tmp_path / "results" / "bench_history.jsonl",
        )

    def test_smoke_creates_and_modifies_nothing(self, tmp_path):
        paths = self.paths(tmp_path)
        paths["bench_perf"].write_text('{"resilience": {"x": 1}}\n')
        before = paths["bench_perf"].read_bytes()
        history.write_section(
            "control_plane", self.BODY, smoke=True, artifact={"results": {}}, **paths
        )
        assert paths["bench_perf"].read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_PERF.json"]

    def test_full_run_writes_artifact_section_and_history_row(self, tmp_path):
        paths = self.paths(tmp_path)
        paths["bench_perf"].write_text('{"resilience": {"x": 1}}\n')
        history.write_section(
            "control_plane",
            self.BODY,
            smoke=False,
            artifact={"results": {"spike/static": {"digest": "d"}}},
            **paths,
        )
        merged = json.loads(paths["bench_perf"].read_text())
        assert merged == {"resilience": {"x": 1}, "control_plane": self.BODY}
        artifact = json.loads(
            (paths["results_dir"] / "bench_control_plane.json").read_text()
        )
        assert artifact["results"]["spike/static"]["digest"] == "d"
        (entry,) = history.load_history(paths["history_path"])
        assert entry.source == "bench_control_plane" and entry.smoke is False
        assert entry.metrics == {
            "control_plane.rows_per_s": 123.0,
            "control_plane.wall_s": 0.5,
        }

    def test_full_run_without_detail_rows_writes_no_artifact(self, tmp_path):
        paths = self.paths(tmp_path)
        history.write_section("policy_evaluation", self.BODY, smoke=False, **paths)
        assert json.loads(paths["bench_perf"].read_text()) == {
            "policy_evaluation": self.BODY
        }
        assert [p.name for p in paths["results_dir"].iterdir()] == [
            "bench_history.jsonl"
        ]

    def test_unknown_section_is_refused(self, tmp_path):
        with pytest.raises(KeyError):
            history.write_section(
                "serving", self.BODY, smoke=False, **self.paths(tmp_path)
            )


def test_bench_perf_sections_are_one_set():
    """BENCH_PERF.json, compare_perf.METRICS and the writer's source table
    name the same sections: nothing is written ungated or gated unwritten."""
    committed = set(json.loads(history.BENCH_PERF_PATH.read_text()))
    gated = {section for section, _, _ in compare_perf.METRICS}
    written = set(history.SECTION_SOURCES)
    assert committed == gated == written
