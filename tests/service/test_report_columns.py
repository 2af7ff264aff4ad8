"""Column-native reports: renderer equivalence and no materialisation.

The column renderer and the array aggregates must be indistinguishable
from the per-record path they replace, and the bulk path
(``run_load -> digest() -> summary()``) must never build a
:class:`RequestRecord`.  This module drives the columnar engine
explicitly, so it shadows the suite-wide ``sim_engine`` matrix fixture.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy
from repro.service.gateway import SimulatedBackend, TierGateway
from repro.service.simulation import (
    LoadTestReport,
    PoissonArrivals,
    RecordColumns,
    build_replay_cluster,
)
from repro.service.simulation import report as report_module
from repro.service.simulation.scenarios import scenario_measurements


@pytest.fixture
def sim_engine():
    """Shadow the engine matrix: every run here names its engine."""
    return None


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


# ----------------------------------------------------------------------
# renderer equivalence (property)
# ----------------------------------------------------------------------
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0 / 3.0]
)
_FLOATS = st.one_of(st.floats(), _EDGE_FLOATS)
#: The accurate leg is absent on ``-1.0`` (the sentinel) and on ``nan``.
_ACCURATE_SECONDS = st.one_of(
    st.just(-1.0), st.just(math.nan), st.floats(min_value=0.0), st.just(0.0)
)
_PAYLOADS = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=3)),
)
_NAMES = st.text(
    alphabet=st.sampled_from("abz%{}=|,"), min_size=1, max_size=4
)
#: (fast, accurate): no accurate leg, accurate sorting after / before
#: the fast name, names carrying template metacharacters, random pairs.
_PAIRS = st.one_of(
    st.sampled_from(
        [
            ("fast", None),
            ("fast", "slow"),
            ("zeta", "alpha"),
            ("50%", "{0}"),
            ("{9:.12e}", "%s"),
        ]
    ),
    st.tuples(_NAMES, st.one_of(st.none(), _NAMES)).filter(
        lambda pair: pair[0] != pair[1]
    ),
)
#: What a tier router leaves behind: an ensemble, a single-version row
#: whose only version is that ensemble's accurate one, a pair whose
#: accurate name sorts first, ``%`` in names.
_ROUTED_TABLE = [
    ("fast", "slow"),
    ("slow", None),
    ("zeta", "alpha"),
    ("50%", "slow"),
]
#: The run's pair table: the engine's fixed-configuration shape (one
#: pair), the routed table, or anything in between.
_TABLES = st.one_of(
    st.lists(_PAIRS, min_size=1, max_size=1),
    st.just(_ROUTED_TABLE),
    st.lists(_PAIRS, min_size=3, max_size=6),
)
_ROW = st.tuples(
    st.text(max_size=8),  # request_id
    _PAYLOADS,
    _FLOATS,  # tier
    _FLOATS,  # arrival_s
    _FLOATS,  # finished_s
    _FLOATS,  # response_time_s
    _FLOATS,  # queue_wait_s
    st.booleans(),  # escalated
    _FLOATS,  # invocation_cost
    _FLOATS,  # node_seconds_fast
    _ACCURATE_SECONDS,
    _FLOATS,  # confidence
    st.booleans(),  # failed
    st.integers(min_value=0, max_value=7),  # retries
    st.booleans(),  # shed
    st.booleans(),  # degraded
    st.booleans(),  # retry_denied
    st.integers(min_value=0, max_value=59),  # pair (folded onto the table)
)


@st.composite
def record_columns(draw):
    pairs = draw(_TABLES)
    rows = draw(st.lists(_ROW, min_size=1, max_size=12))
    (
        ids, payloads, tier, arrival, finished, response, wait, escalated,
        cost, fast_s, accurate_s, confidence, failed, retries, shed,
        degraded, denied, pair,
    ) = zip(*rows)
    # Flags set on no row at all is the columnar engine's own shape.
    flagged = draw(st.booleans())

    def as_flags(values):
        return np.array(values, dtype=bool) & flagged

    return RecordColumns(
        request_ids=list(ids),
        payloads=list(payloads),
        tier=np.array(tier, dtype=float),
        arrival_s=np.array(arrival, dtype=float),
        finished_s=np.array(finished, dtype=float),
        response_time_s=np.array(response, dtype=float),
        queue_wait_s=np.array(wait, dtype=float),
        escalated=np.array(escalated, dtype=bool),
        invocation_cost=np.array(cost, dtype=float),
        pairs=pairs,
        pair_code=np.array(pair, dtype=np.intp) % len(pairs),
        node_seconds_fast=np.array(fast_s, dtype=float),
        node_seconds_accurate=np.array(accurate_s, dtype=float),
        confidence=np.array(confidence, dtype=float),
        failed=np.array(failed, dtype=bool),
        retries=np.array(retries, dtype=np.int64),
        shed=as_flags(shed),
        degraded=as_flags(degraded),
        retry_denied=as_flags(denied),
    )


def _same(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return left == right


def _assert_column_report_matches_record_report(columns: RecordColumns):
    pools = {"fast": 2}
    column_report = LoadTestReport(columns=columns, final_pool_sizes=pools)
    record_report = LoadTestReport(
        records=[columns.record(i) for i in range(len(columns))],
        final_pool_sizes=pools,
    )
    assert record_report.columns is None
    with mock.patch.object(RecordColumns, "record") as record_built:
        assert column_report.digest() == record_report.digest()
        with np.errstate(all="ignore"):
            column_summary = column_report.summary()
            column_seconds = column_report.total_node_seconds
        assert record_built.call_count == 0
    with np.errstate(all="ignore"):
        record_summary = record_report.summary()
        record_seconds = record_report.total_node_seconds
    assert list(column_summary) == list(record_summary)
    for key, value in column_summary.items():
        assert _same(value, record_summary[key]), key
        assert type(value) is type(record_summary[key]), key
    assert column_seconds.keys() == record_seconds.keys()
    for version, seconds in column_seconds.items():
        assert _same(seconds, record_seconds[version]), version


@settings(max_examples=200, deadline=None)
@given(columns=record_columns())
def test_column_renderer_matches_record_renderer(columns):
    _assert_column_report_matches_record_report(columns)


def test_renderer_spans_chunk_boundaries(monkeypatch):
    """Chunking is invisible in the hash stream."""
    monkeypatch.setattr(report_module, "_DIGEST_CHUNK_ROWS", 3)
    n = 10
    ramp = np.arange(n, dtype=float)
    columns = RecordColumns(
        request_ids=[f"r{i}" for i in range(n)],
        payloads=list(range(n)),
        tier=ramp / 100.0,
        arrival_s=ramp,
        finished_s=ramp + 0.5,
        response_time_s=np.full(n, 0.5),
        queue_wait_s=np.zeros(n),
        escalated=ramp % 2 == 0,
        invocation_cost=ramp * 1e-6,
        pairs=_ROUTED_TABLE,
        pair_code=np.arange(n) % len(_ROUTED_TABLE),
        node_seconds_fast=np.full(n, 0.1),
        node_seconds_accurate=np.where(ramp % 2 == 0, 0.4, -1.0),
        confidence=np.full(n, 0.9),
    )
    _assert_column_report_matches_record_report(columns)


def test_a_renderer_that_swaps_two_fields_is_caught(monkeypatch):
    """The property above has teeth: a mutant renderer fails it."""
    real = report_module._column_digest_rows

    def swapped(columns):
        mutant = RecordColumns(
            **{
                name: getattr(columns, name)
                for name in RecordColumns.__slots__
                if name not in ("arrival_s", "finished_s")
            },
            arrival_s=columns.finished_s,
            finished_s=columns.arrival_s,
        )
        return real(mutant)

    monkeypatch.setattr(report_module, "_column_digest_rows", swapped)
    # Generate only: finding the failure is the point, shrinking it is not.
    prop = settings(
        max_examples=50, deadline=None, database=None, phases=[Phase.generate]
    )(
        given(columns=record_columns())(
            _assert_column_report_matches_record_report
        )
    )
    with pytest.raises(AssertionError):
        prop()


# ----------------------------------------------------------------------
# no materialisation on the bulk path (exact counts)
# ----------------------------------------------------------------------
@pytest.fixture
def records_built(monkeypatch):
    """Counts every RequestRecord built from columns while installed."""
    built = []
    real = RecordColumns.record

    def counting(self, index):
        built.append(index)
        return real(self, index)

    monkeypatch.setattr(RecordColumns, "record", counting)
    return built


def _columnar_run_load(toy, n: int = 200) -> LoadTestReport:
    gateway = TierGateway(
        SimulatedBackend(
            build_replay_cluster(toy, {"fast": 2, "slow": 2}),
            seed=5,
            engine="columnar",
        ),
        configuration=EnsembleConfiguration(
            "seq", SequentialPolicy("fast", "slow", 0.6)
        ),
    )
    return gateway.run_load(
        PoissonArrivals(3.0), n, payload_ids=toy.request_ids
    )


def test_bulk_path_builds_no_request_record(toy, records_built):
    report = _columnar_run_load(toy)
    assert report.engine_used == "columnar"
    assert report.columns is not None
    digest = report.digest()
    summary = report.summary()
    assert records_built == []
    assert all(slot is None for slot in report.records._cache)

    # The lazy sequence still serves anyone who indexes it ...
    record = report.records[3]
    assert records_built == [3]
    assert record.request_id == report.columns.request_ids[3]
    assert record.arrival_s == float(report.columns.arrival_s[3])
    assert record.finished_s == float(report.columns.finished_s[3])
    assert report.records[3] is record, "materialized once, then cached"
    # ... and a fully materialized copy reads exactly the same.
    rebuilt = LoadTestReport(
        records=list(report.records),
        final_pool_sizes=report.final_pool_sizes,
        offered_rate=report.offered_rate,
    )
    assert rebuilt.digest() == digest
    assert rebuilt.summary() == summary


def test_columnar_shard_builds_no_request_record(toy, records_built):
    from repro.service.regions import (
        RegionRouter,
        build_shard_tasks,
        region_scenarios,
        run_shard,
    )

    spec = region_scenarios()["tri-steady"]
    assert not any(region.slos for region in spec.regions)
    tasks = build_shard_tasks(
        RegionRouter(spec, toy).plan(), toy, engine="columnar"
    )
    results = [run_shard(task) for task in tasks]
    assert [r.engine_used for r in results] == ["columnar"] * 3
    assert all(r.n_completed == r.n_submitted > 0 for r in results)
    assert records_built == []


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_both_constructions_share_every_field_default(toy):
    """No hand-copied defaults: a column-built report has every field."""
    report = _columnar_run_load(toy, n=20)
    rebuilt = LoadTestReport.from_columns(report.columns)
    listed = LoadTestReport(records=list(report.records))
    for f in dataclasses.fields(LoadTestReport):
        if f.name not in ("records", "columns"):
            assert getattr(rebuilt, f.name) == getattr(listed, f.name), f.name
    assert rebuilt.digest() == listed.digest()
    np.testing.assert_array_equal(rebuilt._latencies, listed._latencies)


def test_explicit_records_replace_the_columns(toy):
    """``dataclasses.replace(report, records=...)`` on a column-built
    report means "these records instead": the columns it copied along no
    longer describe them, so the result is list-backed."""
    report = _columnar_run_load(toy, n=20)
    kept = list(report.records)[1:]
    trimmed = dataclasses.replace(report, records=kept)
    assert trimmed.columns is None
    assert trimmed.n_requests == 19
    assert trimmed.digest() == LoadTestReport(
        records=kept, final_pool_sizes=report.final_pool_sizes
    ).digest()
    with pytest.raises(ValueError, match="at least one record"):
        LoadTestReport(records=[])
    # Untouched, replace passes the lazy view back alongside its columns.
    copy = dataclasses.replace(report, offered_rate=2.0)
    assert copy.columns is report.columns
    assert copy.digest() == report.digest()


def test_zero_offered_rate_is_reported_as_zero(toy):
    report = _columnar_run_load(toy, n=20)
    report.offered_rate = 0.0
    assert report.summary()["offered_rate_rps"] == 0.0
    report.offered_rate = None
    assert math.isnan(report.summary()["offered_rate_rps"])
