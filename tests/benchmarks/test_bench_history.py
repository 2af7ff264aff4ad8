"""Edge-case tests for benchmarks/history.py — the longitudinal store.

Covers the ISSUE acceptance list: empty history, single entry, mixed
smoke/full, an injected changepoint detected by the
``ConfidenceTest``-conditioned scan (and an all-noise history NOT
flagged), machine-metadata mismatch warnings — plus the end-to-end
``results.json`` reader behind ``history.py append`` and the one writer
(``write_section``) every non-serving bench goes through.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compare_perf
import history
from repro.contract import CONTRACT_VERSION
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

    def test_schema_matches_the_committed_artifact_shape(self, tmp_path):
        # A history line is plain JSON with the documented keys, so the
        # file stays greppable and diff-able.
        path = tmp_path / "h.jsonl"
        history.append_entry(make_entry(1.0, timestamp=1.0), path)
        raw = json.loads(path.read_text().strip())
        assert set(raw) == {
            "schema", "timestamp", "source", "commit", "branch",
            "machine", "smoke", "metrics", "contract_version",
        }
        assert raw["schema"] == history.SCHEMA_VERSION


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


# ----------------------------------------------------------------------
# property: a line loads back as the entry written, or names itself
# ----------------------------------------------------------------------
_TEXT = st.text(max_size=12)
_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_ENTRIES = st.builds(
    history.HistoryEntry,
    timestamp=st.floats(allow_nan=False),
    source=_TEXT,
    commit=_TEXT,
    branch=_TEXT,
    machine=st.dictionaries(_TEXT, _LEAF.filter(lambda v: v == v), max_size=4),
    smoke=st.booleans(),
    metrics=st.dictionaries(_TEXT, st.floats(allow_nan=False), max_size=4),
    schema=st.integers(),
    contract_version=st.none() | st.integers(),
)
#: A field of a valid entry with a value of the wrong type (a bool is no
#: number, a number no bool).
_WRONG = {
    "timestamp": st.booleans() | _TEXT | st.none() | st.lists(_LEAF, max_size=2),
    "source": st.integers() | st.floats() | st.booleans() | st.none(),
    "commit": st.integers() | st.booleans() | st.none(),
    "machine": st.lists(_LEAF, max_size=2) | _TEXT | st.integers(),
    "smoke": st.integers() | _TEXT | st.none(),
    "metrics": st.lists(_LEAF, max_size=2) | _TEXT | st.floats(),
    "schema": st.floats() | _TEXT | st.booleans(),
    "contract_version": st.floats() | _TEXT | st.booleans(),
}


@st.composite
def _not_an_entry(draw):
    """A non-blank line that is no history entry: not UTF-8, not JSON,
    JSON but no object, an object missing a required field, a field of
    the wrong type, or a metric that is no (finite-width) number."""
    valid = json.loads(json.dumps(dataclasses.asdict(draw(_ENTRIES))))
    kind = draw(st.sampled_from(
        ["bytes", "text", "json", "missing", "wrong", "metric"]
    ))
    if kind == "bytes":
        return b"\xff" + draw(st.binary(max_size=8)).replace(b"\n", b"")
    if kind == "text":
        text = draw(st.text(min_size=1).filter(lambda t: t.strip()))
        try:
            json.loads(text)
        except ValueError:
            pass
        else:
            text = "{" + text  # now it is not JSON
        return text.replace("\n", " ").replace("\r", " ").encode("utf-8", "surrogatepass")
    if kind == "json":
        value = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "missing":
        value = valid
        del value[draw(st.sampled_from(["timestamp", "source", "metrics"]))]
    elif kind == "wrong":
        key = draw(st.sampled_from(sorted(_WRONG)))
        value = {**valid, key: draw(_WRONG[key])}
    else:
        bad = draw(_TEXT | st.booleans() | st.none() | st.just(10**400))
        value = {**valid, "metrics": {**valid["metrics"], "x": bad}}
    return json.dumps(value).encode()


@settings(max_examples=150, deadline=None)
@given(before=st.lists(_ENTRIES, max_size=3), line=_not_an_entry(), after=_ENTRIES)
def test_a_line_that_is_not_an_entry_names_its_file_and_line(
    tmp_path_factory, before, line, after
):
    """Whatever is wrong with a non-blank line, loading raises
    ``HistoryFileError`` with the file and the line's 1-based number —
    never a bare traceback — however many good lines surround it."""
    path = tmp_path_factory.mktemp("history") / "h.jsonl"
    for entry in before:
        history.append_entry(entry, path)
    with path.open("ab") as handle:
        handle.write(line + b"\n")
    history.append_entry(after, path)
    with pytest.raises(HistoryFileError) as caught:
        history.load_history(path)
    assert (caught.value.path, caught.value.line) == (str(path), len(before) + 1)


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(_ENTRIES, max_size=5))
def test_appended_entries_load_back_unchanged(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("history") / "h.jsonl"
    for entry in entries:
        history.append_entry(entry, path)
    loaded = history.load_history(path)
    key = lambda e: e.timestamp  # noqa: E731 - load_history's own order
    assert loaded == sorted(entries, key=key)


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
    def test_a_row_from_before_the_contract_version_still_loads(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entry = history.entry_from_metrics(
            {"a.b": 1.0}, source="e2e", smoke=False, timestamp=1.0
        )
        raw = dataclasses.asdict(entry)
        del raw["contract_version"]
        path.write_text(json.dumps(raw) + "\n")
        assert history.load_history(path) == [
            dataclasses.replace(entry, contract_version=None)
        ]

    def test_a_row_with_the_retired_engine_label_still_loads(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entry = make_entry(1.0, timestamp=1.0)
        raw = {**dataclasses.asdict(entry), "engine": "columnar"}
        path.write_text(json.dumps(raw) + "\n")
        assert history.load_history(path) == [entry]

    def test_defaults_fill_machine_git_and_timestamp(self):
        entry = history.entry_from_metrics(
            {"a.b": 1.0}, source="bench_perf", smoke=False
        )
        assert entry.machine == history.machine_fingerprint()
        assert entry.commit and entry.branch  # real repo: non-empty
        assert entry.timestamp > 0
        assert entry.schema == history.SCHEMA_VERSION
        assert entry.contract_version == CONTRACT_VERSION

    def test_git_metadata_in_a_repo(self, tmp_path):
        # A throwaway repository, so the test reads the same in a copy of
        # the tree that is no git checkout.
        if shutil.which("git") is None:
            pytest.skip("no git executable")
        env = {
            **os.environ,
            "GIT_CONFIG_GLOBAL": os.devnull,
            "GIT_CONFIG_NOSYSTEM": "1",
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.invalid",
        }

        def git(*args):
            return subprocess.run(
                ("git", *args), cwd=tmp_path, env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        git("symbolic-ref", "HEAD", "refs/heads/bench-line")
        git("commit", "-q", "--allow-empty", "-m", "empty")
        commit = git("log", "-1", "--format=%H")
        assert re.fullmatch(r"[0-9a-f]{40}", commit)
        meta = history.git_metadata(cwd=tmp_path)
        assert meta == {"commit": commit, "branch": "bench-line"}

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
