"""Tests for the 'one size fits all' limitation analysis."""

import numpy as np
import pytest

from repro.analysis.categories import (
    CATEGORY_NAMES,
    categorize_requests,
    error_by_category,
)
from repro.analysis.pareto import pareto_frontier, version_pareto
from repro.analysis.summary import osfa_limit_summary
from repro.analysis.tables import format_table
from repro.analysis.tradeoff import latency_percentiles, version_summaries
from repro.service.measurement import MeasurementSet


def _synthetic_set() -> MeasurementSet:
    """Four requests with known category behaviour over three versions."""
    versions = ("v_fast", "v_mid", "v_slow")
    # rows: unchanged, improves, degrades, varies
    error = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
        ]
    )
    latency = np.tile(np.array([0.1, 0.2, 0.4]), (4, 1))
    confidence = np.full((4, 3), 0.8)
    return MeasurementSet(
        service="toy",
        request_ids=("r0", "r1", "r2", "r3"),
        versions=versions,
        error=error,
        latency_s=latency,
        confidence=confidence,
        version_instances={v: "cpu.medium" for v in versions},
    )


class TestPareto:
    def test_simple_frontier(self):
        flags = pareto_frontier([1.0, 2.0, 3.0], [0.3, 0.2, 0.25])
        assert flags == [True, True, False]

    def test_duplicate_points_both_kept(self):
        assert pareto_frontier([1.0, 1.0], [0.5, 0.5]) == [True, True]

    def test_empty(self):
        assert pareto_frontier([], []) == []

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pareto_frontier([1.0], [0.1, 0.2])

    def test_version_pareto_sorted_by_latency(self):
        points = version_pareto(_synthetic_set())
        latencies = [p.mean_latency_s for p in points]
        assert latencies == sorted(latencies)

    def test_version_pareto_flags(self, asr_measurements):
        points = version_pareto(asr_measurements)
        # the fastest and the most accurate versions are always on the frontier
        by_name = {p.version: p for p in points}
        assert by_name[asr_measurements.fastest_version()].on_frontier
        assert by_name[asr_measurements.most_accurate_version()].on_frontier


class TestCategories:
    def test_known_assignments(self):
        breakdown = categorize_requests(_synthetic_set())
        assert breakdown.assignments == ("unchanged", "improves", "degrades", "varies")

    def test_shares_sum_to_one(self):
        shares = categorize_requests(_synthetic_set()).shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == set(CATEGORY_NAMES)

    def test_assignments_and_indices(self):
        breakdown = categorize_requests(_synthetic_set())
        assert breakdown.assignments.count("unchanged") == 1
        assert breakdown.indices_of("varies") == [3]

    def test_indices_of_unknown_category(self):
        with pytest.raises(ValueError):
            categorize_requests(_synthetic_set()).indices_of("sometimes")

    def test_wer_tolerance_treats_small_changes_as_unchanged(self):
        ms = _synthetic_set()
        ms.error[1] = [0.100, 0.1001, 0.0999]
        breakdown = categorize_requests(ms, tolerance=0.01)
        assert breakdown.assignments[1] == "unchanged"

    def test_majority_unchanged_on_real_services(self, asr_measurements, ic_measurements):
        for measurements in (asr_measurements, ic_measurements):
            shares = categorize_requests(measurements, tolerance=1e-6).shares()
            # the paper reports the unchanged category dominating (>65 %);
            # our synthetic substrates reproduce a clear plurality
            assert shares["unchanged"] == max(shares.values())

    def test_error_by_category_structure(self):
        ms = _synthetic_set()
        table = error_by_category(ms)
        assert "all" in table
        assert set(table["all"]) == set(ms.versions)
        assert "unchanged" not in table

    def test_error_by_category_all_matches_means(self):
        ms = _synthetic_set()
        table = error_by_category(ms)
        for version in ms.versions:
            assert table["all"][version] == pytest.approx(ms.mean_error(version))


class TestTradeoffSummaries:
    def test_version_summaries_sorted_and_normalised(self, ic_measurements):
        summaries = version_summaries(ic_measurements)
        latencies = [s.mean_latency_s for s in summaries]
        assert latencies == sorted(latencies)
        assert summaries[0].latency_vs_fastest == pytest.approx(1.0)
        best_error = min(s.mean_error for s in summaries)
        for summary in summaries:
            expected = (summary.mean_error - best_error) / best_error
            assert summary.error_vs_best == pytest.approx(expected)

    def test_latency_percentiles_monotone(self, ic_measurements):
        table = latency_percentiles(ic_measurements)
        for stats in table.values():
            assert stats["p50"] <= stats["p90"] <= stats["p99"]


class TestSummary:
    def test_headline_numbers(self, asr_measurements):
        summary = osfa_limit_summary(asr_measurements)
        assert summary.latency_ratio > 1.0
        assert 0.0 < summary.error_reduction < 1.0
        assert summary.fastest_version == asr_measurements.fastest_version()

    def test_toy_values(self):
        # every toy version has the same mean error, so the most accurate
        # version resolves to the fastest one and there is nothing to gain
        summary = osfa_limit_summary(_synthetic_set())
        assert summary.most_accurate_version == "v_fast"
        assert summary.latency_ratio == pytest.approx(1.0)
        assert summary.error_reduction == pytest.approx(0.0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["longer", 2.0]], title="Demo"
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_bools_and_floats(self):
        text = format_table(["x"], [[True], [0.123456]], float_format=".2f")
        assert "yes" in text
        assert "0.12" in text
