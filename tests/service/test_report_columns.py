"""Column-backed reports: digest equivalence, the record round trip
and no materialisation.

Every report is ``RecordColumns``.  The column digest and the array
aggregates must be indistinguishable from the per-record reference in
``tests/oracle/report_reference.py``, a record list must survive
``RecordColumns.from_records`` field for field, and the bulk path
(``run_load -> digest() -> summary()``) must never build a
:class:`RequestRecord`.
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
from oracle.report_reference import (
    confuses_none_with_nan,
    drops_the_sentinel,
    reference_digest,
    reference_node_seconds,
    reference_summary,
)
from repro.service.simulation import (
    LoadTestReport,
    PoissonArrivals,
    RecordColumns,
    RequestRecord,
    build_replay_cluster,
)
from repro.service.simulation import report as report_module
from repro.service.simulation.scenarios import scenario_measurements


@pytest.fixture
def sim_loop():
    """Shadow the loop matrix: the bulk path under test is the default one."""
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
#: The fast leg bills nothing on a negative value (``-1.0`` is the
#: sentinel ``from_records`` writes): a failed or shed request's row.
_FAST_SECONDS = st.one_of(st.just(-1.0), _FLOATS)
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
    _FAST_SECONDS,
    _ACCURATE_SECONDS,
    _FLOATS,  # confidence
    st.booleans(),  # failed
    st.integers(min_value=0, max_value=7),  # retries
    st.booleans(),  # shed
    st.booleans(),  # degraded
    st.booleans(),  # retry_denied
    st.integers(min_value=0, max_value=59),  # pair (folded onto the table)
    st.booleans(),  # no_confidence
    st.one_of(st.none(), _PAYLOADS),  # result (None: the payload itself)
)


@st.composite
def record_columns(draw):
    pairs = draw(_TABLES)
    rows = draw(st.lists(_ROW, min_size=1, max_size=12))
    (
        ids, payloads, tier, arrival, finished, response, wait, escalated,
        cost, fast_s, accurate_s, confidence, failed, retries, shed,
        degraded, denied, pair, no_confidence, results,
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
        no_confidence=as_flags(no_confidence),
        # A replay run (every result is its payload) holds no list.
        results=[
            payload if result is None else result
            for payload, result in zip(payloads, results)
        ]
        if flagged
        else None,
    )


def _same(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return left == right


def _assert_report_matches_reference(report: LoadTestReport, records, pools):
    """Digest, summary and node-seconds of ``report`` against the
    per-record oracle over ``records``, building no record on the way."""
    with mock.patch.object(RecordColumns, "record") as record_built:
        assert report.digest() == reference_digest(records, pools)
        with np.errstate(all="ignore"):
            summary = report.summary()
            seconds = report.total_node_seconds
        assert record_built.call_count == 0
    with np.errstate(all="ignore"):
        expected = reference_summary(records)
    assert list(summary) == list(expected)
    for key, value in summary.items():
        assert _same(value, expected[key]), key
        assert type(value) is type(expected[key]), key
    expected_seconds = reference_node_seconds(records)
    assert seconds.keys() == expected_seconds.keys()
    for version, value in seconds.items():
        assert _same(value, expected_seconds[version]), version


def _assert_column_report_matches_record_report(columns: RecordColumns):
    """Both ways into a report — the columns as they are, and their
    records transposed back by the constructor — against the oracle."""
    pools = {"fast": 2}
    records = [columns.record(i) for i in range(len(columns))]
    _assert_report_matches_reference(
        LoadTestReport(columns=columns, final_pool_sizes=pools), records, pools
    )
    _assert_report_matches_reference(
        LoadTestReport(records=records, final_pool_sizes=pools), records, pools
    )


@settings(max_examples=200, deadline=None)
@given(columns=record_columns())
def test_column_renderer_matches_record_renderer(columns):
    _assert_column_report_matches_record_report(columns)


def test_a_renderer_that_swaps_two_fields_is_caught(monkeypatch):
    """The property above has teeth: a hasher fed two columns swapped
    fails it."""
    real = report_module.digest_columns

    def swapped(columns):
        hashed = real(columns)
        hashed["arrival_s"], hashed["finished_s"] = (
            hashed["finished_s"],
            hashed["arrival_s"],
        )
        return hashed

    monkeypatch.setattr(report_module, "digest_columns", swapped)
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
# records in, the same records out (property)
# ----------------------------------------------------------------------
_FINITE = st.floats(allow_nan=False)  # nan != nan would fail the equality
_SECONDS = st.floats(min_value=0.0, allow_nan=False)
#: What a record can have billed: nothing (failed / shed), one version,
#: a (fast, accurate) pair in either name order.
_BILLED = st.one_of(
    st.just({}),
    st.dictionaries(_NAMES, _SECONDS, min_size=1, max_size=2),
    st.sampled_from([("fast", "slow"), ("zeta", "alpha"), ("slow",)]).flatmap(
        lambda names: st.tuples(*[_SECONDS] * len(names)).map(
            lambda seconds: dict(zip(names, seconds))
        )
    ),
)


@st.composite
def request_records(draw):
    node_seconds = draw(_BILLED)
    payload = draw(_PAYLOADS)
    return RequestRecord(
        request_id=draw(st.text(max_size=8)),
        payload=payload,
        tier=draw(_FINITE),
        arrival_s=draw(_FINITE),
        finished_s=draw(_FINITE),
        response_time_s=draw(_FINITE),
        queue_wait_s=draw(_FINITE),
        versions_used=tuple(node_seconds),
        escalated=draw(st.booleans()),
        invocation_cost=draw(_FINITE),
        node_seconds=node_seconds,
        failed=draw(st.booleans()),
        retries=draw(st.integers(min_value=0, max_value=7)),
        # The payload itself (a replay answer), None (unanswered), other.
        result=draw(st.one_of(st.just(payload), _PAYLOADS)),
        confidence=draw(st.one_of(st.none(), _FINITE, _FINITE)),
        shed=draw(st.booleans()),
        degraded=draw(st.booleans()),
        retry_denied=draw(st.booleans()),
    )


def _assert_records_round_trip(records):
    columns = RecordColumns.from_records(records)
    for index, given in enumerate(records):
        rebuilt = columns.record(index)
        assert rebuilt == given
        assert rebuilt is not given
        # No NumPy scalar leaks out of the columns.
        for f in dataclasses.fields(RequestRecord):
            mine, theirs = getattr(rebuilt, f.name), getattr(given, f.name)
            assert type(mine) is type(theirs), f.name
        assert list(rebuilt.node_seconds) == list(given.node_seconds)
        assert all(type(s) is float for s in rebuilt.node_seconds.values())
    # A report serves the caller's own objects: nothing is rebuilt.
    report = LoadTestReport(records=records)
    with mock.patch.object(RecordColumns, "record") as record_built:
        assert all(mine is given for mine, given in zip(report.records, records))
        assert report.records[-1] is records[-1]
        assert record_built.call_count == 0
    assert report.digest() == reference_digest(records)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(request_records(), min_size=1, max_size=8))
def test_records_survive_the_transposition(records):
    _assert_records_round_trip(records)


@pytest.mark.parametrize("mutant", [drops_the_sentinel, confuses_none_with_nan])
def test_a_lossy_transposition_is_caught(monkeypatch, mutant):
    """The round trip has teeth: each encoding, dropped, fails it."""
    monkeypatch.setattr(
        RecordColumns, "from_records", mutant(RecordColumns.from_records)
    )
    prop = settings(
        max_examples=100, deadline=None, database=None, phases=[Phase.generate]
    )(
        given(records=st.lists(request_records(), min_size=1, max_size=8))(
            _assert_records_round_trip
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
    tasks = build_shard_tasks(RegionRouter(spec, toy).plan(), toy)
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
    rebuilt = LoadTestReport(columns=report.columns)
    listed = LoadTestReport(records=list(report.records))
    for f in dataclasses.fields(LoadTestReport):
        if f.name not in ("records", "columns"):
            assert getattr(rebuilt, f.name) == getattr(listed, f.name), f.name
    assert rebuilt.digest() == listed.digest()
    np.testing.assert_array_equal(rebuilt._latencies, listed._latencies)


def test_explicit_records_replace_the_columns(toy):
    """``dataclasses.replace(report, records=...)`` on a column-built
    report means "these records instead": the columns it copied along no
    longer describe them, so they are transposed afresh."""
    report = _columnar_run_load(toy, n=20)
    kept = list(report.records)[1:]
    trimmed = dataclasses.replace(report, records=kept)
    assert trimmed.columns is not report.columns
    assert trimmed.columns.request_ids == report.columns.request_ids[1:]
    assert trimmed.n_requests == 19
    assert all(mine is given for mine, given in zip(trimmed.records, kept))
    assert (
        trimmed.digest()
        == LoadTestReport(
            records=kept, final_pool_sizes=report.final_pool_sizes
        ).digest()
        == reference_digest(kept, report.final_pool_sizes)
    )
    with pytest.raises(ValueError, match="at least one record"):
        LoadTestReport(records=[])
    # Untouched, replace passes the lazy view back alongside its columns.
    copy = dataclasses.replace(report, offered_rate=2.0)
    assert copy.columns is report.columns
    assert copy.digest() == report.digest()


def _three_rows(**overrides) -> RecordColumns:
    fields = dict(
        request_ids=["a", "b", "c"],
        payloads=[0, 1, 2],
        tier=np.zeros(3),
        arrival_s=np.zeros(3),
        finished_s=np.ones(3),
        response_time_s=np.ones(3),
        queue_wait_s=np.zeros(3),
        escalated=np.zeros(3, dtype=bool),
        invocation_cost=np.full(3, 1e-6),
        pairs=[("fast", "slow")],
        pair_code=np.zeros(3, dtype=np.intp),
        node_seconds_fast=np.full(3, 0.25),
        node_seconds_accurate=np.full(3, -1.0),
        confidence=np.full(3, 0.9),
    )
    fields.update(overrides)
    return RecordColumns(**fields)


@pytest.mark.parametrize(
    "column, value",
    [
        ("tier", np.zeros(2)),
        ("payloads", [0, 1, 2, 3]),
        ("retry_denied", np.zeros(4, dtype=bool)),
        ("results", ["only one"]),
    ],
)
def test_ragged_columns_are_rejected(column, value):
    """A short column used to construct, then digest 2 rows of 3 and
    divide a 2-row cost by 3."""
    assert len(_three_rows()) == 3
    with pytest.raises(
        ValueError,
        match=rf"column '{column}' has {len(value)} rows, 'request_ids' has 3",
    ):
        _three_rows(**{column: value})


@pytest.mark.parametrize("codes", [[0, 1, 0], [0, -1, 0]])
def test_a_pair_code_outside_the_table_is_rejected(codes):
    """It used to surface as an IndexError from inside ``digest()``."""
    with pytest.raises(ValueError, match=r"'pair_code' spans .* 'pairs' has 1 rows"):
        _three_rows(pair_code=np.array(codes, dtype=np.intp))


@pytest.mark.parametrize(
    "versions_used, node_seconds",
    [
        # "used fast, billed nothing" (what a fixture default builds).
        (("fast",), {}),
        (("slow", "fast"), {"fast": 0.1, "slow": 0.4}),
        ((), {"fast": 0.1}),
        (("a", "b", "c"), {"a": 0.1, "b": 0.2, "c": 0.3}),
        # A negative value is the columns' "nothing billed".
        (("fast",), {"fast": -0.5}),
    ],
)
def test_a_record_that_contradicts_its_billing_is_rejected(
    versions_used, node_seconds
):
    record = dataclasses.replace(
        _three_rows().record(0),
        request_id="odd-one",
        versions_used=versions_used,
        node_seconds=node_seconds,
    )
    for build in (RecordColumns.from_records, lambda rs: LoadTestReport(records=rs)):
        with pytest.raises(ValueError) as raised:
            build([_three_rows().record(1), record])
        message = str(raised.value)
        assert "'odd-one'" in message
        assert repr(versions_used) in message and repr(node_seconds) in message


def test_zero_offered_rate_is_reported_as_zero(toy):
    report = _columnar_run_load(toy, n=20)
    report.offered_rate = 0.0
    assert report.summary()["offered_rate_rps"] == 0.0
    report.offered_rate = None
    assert math.isnan(report.summary()["offered_rate_rps"])
