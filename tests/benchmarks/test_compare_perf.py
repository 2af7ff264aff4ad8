"""Regression tests for compare_perf's two fixed bugs + the history mode.

Each test class pins one of the historical failure modes:

* ``TestShapeMismatch`` — ``compare`` used to crash with ``TypeError``
  (``set(old) & set(new)`` on a float) when a metric was a dict in one
  artefact and a scalar in the other;
* ``TestZeroBaseline`` — ``compare`` used to silently skip any metric
  whose baseline was falsy (``or not old`` / ``if not old[key]``), so
  zero baselines like ``resilience.time_to_recover_s`` could regress
  without ever being compared.

Smoke runs write no artefact and no history row any more, so the
smoke-vs-full suppression those produced is gone; the history mode reads
full-run rows only.
"""

import json

import pytest

import compare_perf
import history as history_mod
from compare_perf import Row, compare, main


def rows_by_label(baseline, fresh, threshold=0.05):
    return {row.label: row for row in compare(baseline, fresh, threshold)}


class TestShapeMismatch:
    """Dict-vs-scalar metric shapes: explicit schema row, never a crash."""

    def test_scalar_to_dict_does_not_crash(self):
        baseline = {"policy_evaluation": {"rows_per_s": 100.0}}
        fresh = {"policy_evaluation": {"rows_per_s": {"columnar": 120.0}}}
        rows = list(compare(baseline, fresh, 0.05))  # used to raise TypeError
        assert len(rows) == 1
        row = rows[0]
        assert row.label == "policy_evaluation.rows_per_s"
        assert "schema changed" in row.note
        assert not row.flagged
        assert row.old is None and row.new is None and row.delta is None

    def test_dict_to_scalar_does_not_crash(self):
        baseline = {"rule_generator": {"trials_per_s": {"vectorized": 100.0}}}
        fresh = {"rule_generator": {"trials_per_s": 120.0}}
        rows = list(compare(baseline, fresh, 0.05))
        assert len(rows) == 1
        assert "schema changed" in rows[0].note
        assert "per-key dict" in rows[0].note

    def test_key_level_type_mismatch_is_a_schema_row(self):
        baseline = {"control_plane": {"goodput_rps": {"spike": 5.0}}}
        fresh = {"control_plane": {"goodput_rps": {"spike": {"static": 5.0}}}}
        rows = rows_by_label(baseline, fresh)
        row = rows["control_plane.goodput_rps.spike"]
        assert "schema changed" in row.note and not row.flagged

    def test_added_and_dropped_keys_are_reported(self):
        baseline = {"control_plane": {"goodput_rps": {"spike": 5.0, "old": 1.0}}}
        fresh = {"control_plane": {"goodput_rps": {"spike": 5.0, "new": 2.0}}}
        rows = rows_by_label(baseline, fresh)
        assert "key dropped" in rows["control_plane.goodput_rps.old"].note
        assert "key new" in rows["control_plane.goodput_rps.new"].note
        assert rows["control_plane.goodput_rps.spike"].delta == 0.0

    def test_matching_dict_shapes_still_compare_per_key(self):
        baseline = {"control_plane": {"p95_latency_s": {"spike": 1.0}}}
        fresh = {"control_plane": {"p95_latency_s": {"spike": 2.0}}}
        row = rows_by_label(baseline, fresh)["control_plane.p95_latency_s.spike"]
        assert row.delta == pytest.approx(1.0)
        assert row.flagged  # smaller-is-better metric doubled


class TestZeroBaseline:
    """Zero baselines are compared, not skipped; only the division is guarded."""

    def test_zero_baseline_regression_is_reported_and_flagged(self):
        # The silent-skip bug's exact shape: time_to_recover_s == 0.0
        # (perfect recovery) regressing to a nonzero tail.
        baseline = {"resilience": {"time_to_recover_s": 0.0}}
        fresh = {"resilience": {"time_to_recover_s": 2.0}}
        rows = rows_by_label(baseline, fresh)
        row = rows["resilience.time_to_recover_s"]  # used to be absent
        assert row.flagged
        assert row.delta is None
        assert "zero baseline" in row.note

    def test_zero_baseline_improvement_is_reported_not_flagged(self):
        baseline = {"resilience": {"goodput_retention": 0.0}}
        fresh = {"resilience": {"goodput_retention": 0.9}}
        row = rows_by_label(baseline, fresh)["resilience.goodput_retention"]
        assert not row.flagged
        assert "zero baseline" in row.note

    def test_zero_to_zero_is_an_ok_row(self):
        baseline = {"resilience": {"retry_amplification": 0.0}}
        fresh = {"resilience": {"retry_amplification": 0.0}}
        row = rows_by_label(baseline, fresh)["resilience.retry_amplification"]
        assert row.delta == 0.0 and not row.flagged and not row.note

    def test_falsy_dict_key_baseline_is_compared(self):
        # The dict branch had the same bug (`if not old[key]: continue`).
        baseline = {"resilience": {"time_to_recover_s": {"cascade-static": 0.0}}}
        fresh = {"resilience": {"time_to_recover_s": {"cascade-static": 3.0}}}
        rows = rows_by_label(baseline, fresh)
        row = rows["resilience.time_to_recover_s.cascade-static"]
        assert row.flagged and "zero baseline" in row.note

    def test_nonzero_metrics_unaffected(self):
        baseline = {"policy_evaluation": {"rows_per_s": 100.0}}
        fresh = {"policy_evaluation": {"rows_per_s": 90.0}}
        row = rows_by_label(baseline, fresh)["policy_evaluation.rows_per_s"]
        assert row.delta == pytest.approx(-0.1)
        assert row.flagged

    def test_regions_rows_are_gated(self):
        baseline = {"regions": {"goodput_rps": {"tri-steady": 10.0}}}
        fresh = {"regions": {"goodput_rps": {"tri-steady": 5.0}}}
        assert rows_by_label(baseline, fresh)[
            "regions.goodput_rps.tri-steady"
        ].flagged


class TestMainTwoArtifacts:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_strict_fails_on_real_regression(self, tmp_path):
        baseline = self.write(
            tmp_path, "base.json", {"policy_evaluation": {"rows_per_s": 100.0}}
        )
        fresh = self.write(
            tmp_path, "fresh.json", {"policy_evaluation": {"rows_per_s": 50.0}}
        )
        assert main([str(baseline), str(fresh)]) == 0  # advisory by default
        assert main([str(baseline), str(fresh), "--strict"]) == 1

    def test_missing_artifact_is_a_noop(self, tmp_path):
        missing = tmp_path / "nope.json"
        fresh = self.write(tmp_path, "fresh.json", {})
        assert main([str(missing), str(fresh), "--strict"]) == 0

    def test_schema_change_does_not_crash_end_to_end(self, tmp_path, capsys):
        baseline = self.write(
            tmp_path,
            "base.json",
            {"policy_evaluation": {"rows_per_s": 100.0}},
        )
        fresh = self.write(
            tmp_path,
            "fresh.json",
            {"policy_evaluation": {"rows_per_s": {"columnar": 1.0}}},
        )
        assert main([str(baseline), str(fresh), "--strict"]) == 0
        assert "schema changed" in capsys.readouterr().out


def seeded_history(tmp_path, values, *, label="policy_evaluation.rows_per_s", smoke=False):
    """Write a history file with one entry per value, fixed metadata."""
    path = tmp_path / "bench_history.jsonl"
    for i, value in enumerate(values):
        entry = history_mod.entry_from_metrics(
            {label: float(value)},
            source="bench_perf",
            smoke=smoke,
            engine="columnar",
            timestamp=1_000.0 + i,
            machine={"hostname": "quiet-box", "platform": "linux", "python": "3", "cpu_count": 8},
            git={"commit": f"c{i}", "branch": "main"},
        )
        history_mod.append_entry(entry, path)
    return path


class TestAgainstHistory:
    def fresh_artifact(self, tmp_path, value):
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps({"policy_evaluation": {"rows_per_s": value}}))
        return path

    def test_regression_past_history_noise_is_flagged(self, tmp_path, capsys):
        hist = seeded_history(tmp_path, [100.0 + 0.1 * i for i in range(10)])
        fresh = self.fresh_artifact(tmp_path, 50.0)
        code = main(
            ["--against-history", str(fresh), "--history", str(hist), "--strict"]
        )
        assert code == 1
        assert "ADVISORY regression" in capsys.readouterr().out

    def test_value_inside_history_noise_passes(self, tmp_path):
        hist = seeded_history(tmp_path, [100.0, 101.0, 99.0, 100.5, 99.5, 100.2])
        fresh = self.fresh_artifact(tmp_path, 100.3)
        assert (
            main(
                ["--against-history", str(fresh), "--history", str(hist), "--strict"]
            )
            == 0
        )

    def test_improvement_is_not_flagged(self, tmp_path):
        hist = seeded_history(tmp_path, [100.0, 101.0, 99.0, 100.5, 99.5])
        fresh = self.fresh_artifact(tmp_path, 500.0)  # faster is better
        assert (
            main(
                ["--against-history", str(fresh), "--history", str(hist), "--strict"]
            )
            == 0
        )

    def test_smoke_tagged_rows_are_not_a_baseline(self, tmp_path, capsys):
        # Benches before PR 23 appended smoke rows (~40 here); they must
        # neither judge a full run (~100) nor count towards MIN_HISTORY.
        seeded_history(tmp_path, [100.0, 101.0, 99.0, 100.5, 99.5], smoke=False)
        hist = seeded_history(
            tmp_path, [40.0, 41.0, 39.0, 40.5, 39.5], smoke=True
        )
        fresh = self.fresh_artifact(tmp_path, 100.2)
        assert (
            main(
                ["--against-history", str(fresh), "--history", str(hist), "--strict"]
            )
            == 0
        )
        assert "5-run history" in capsys.readouterr().out

    def test_e2e_results_file_is_scored_by_the_manifest_direction(
        self, tmp_path, capsys
    ):
        label = "e2e.steady_fixed.wall_s"  # BENCHMARK.json: lower is better
        hist = seeded_history(
            tmp_path, [0.074, 0.075, 0.073, 0.0745, 0.0735, 0.074], label=label
        )
        fresh = tmp_path / "results.json"

        def results(wall_s):
            return {
                "scaled": False,
                "workloads": {
                    "steady_fixed": {
                        "end_to_end": {"wall_s": {"value": wall_s, "unit": "s"}},
                        "per_layer": {},
                    }
                },
            }

        args = ["--against-history", str(fresh), "--history", str(hist), "--strict"]
        fresh.write_text(json.dumps(results(0.150)))
        assert main(args) == 1
        assert label in capsys.readouterr().out
        fresh.write_text(json.dumps(results(0.040)))  # faster: not flagged
        assert main(args) == 0

    def test_insufficient_history_records_without_judging(self, tmp_path, capsys):
        hist = seeded_history(tmp_path, [100.0, 99.0])  # below MIN_HISTORY
        fresh = self.fresh_artifact(tmp_path, 10.0)  # would be a huge regression
        assert (
            main(
                ["--against-history", str(fresh), "--history", str(hist), "--strict"]
            )
            == 0
        )
        assert "insufficient" in capsys.readouterr().out

    def test_empty_history_is_graceful(self, tmp_path, capsys):
        hist = tmp_path / "bench_history.jsonl"  # does not exist
        fresh = self.fresh_artifact(tmp_path, 100.0)
        assert (
            main(
                ["--against-history", str(fresh), "--history", str(hist), "--strict"]
            )
            == 0
        )
        assert "insufficient" in capsys.readouterr().out

    def test_changepoint_in_history_is_reported(self, tmp_path, capsys):
        values = [100.0, 100.2, 99.8, 100.1, 99.9, 100.0] + [50.0] * 6
        hist = seeded_history(tmp_path, values)
        fresh = self.fresh_artifact(tmp_path, 50.1)
        main(["--against-history", str(fresh), "--history", str(hist)])
        assert "changepoint" in capsys.readouterr().out

    def test_machine_mismatch_warning_is_printed(self, tmp_path, capsys):
        hist = seeded_history(
            tmp_path, [100.0, 101.0, 99.0, 100.5, 99.5, 100.1]
        )
        fresh = self.fresh_artifact(tmp_path, 100.0)
        main(["--against-history", str(fresh), "--history", str(hist)])
        out = capsys.readouterr().out
        # The seeded entries name a fake machine, so the current host
        # cannot appear in the history.
        assert "WARN" in out and "no entries in this history" in out


class TestCLIGuards:
    def test_history_mode_rejects_positionals(self):
        with pytest.raises(SystemExit):
            main(["a.json", "b.json", "--against-history", "x.json"])

    def test_two_artifact_mode_needs_both_paths(self):
        with pytest.raises(SystemExit):
            main(["only-one.json"])

    def test_metric_direction_lookup(self):
        assert compare_perf._metric_direction("policy_evaluation.rows_per_s") == 1
        assert (
            compare_perf._metric_direction("control_plane.p95_latency_s.spike")
            == -1
        )
        assert compare_perf._metric_direction("unknown.metric") is None
        assert (
            compare_perf._metric_direction("e2e.traced_export.obs.spans_per_s")
            == 1
        )
        assert compare_perf._metric_direction("e2e.steady_fixed.nope") is None

    def test_row_is_exported(self):
        assert Row("x", 1.0, 2.0, 1.0, False).label == "x"
