"""The report digest's contract (:mod:`repro.contract`, version 3).

What the column hash must see and must not: a NaN is a NaN whatever its
sign and payload, a row that billed nothing says nothing about its pair
or its accurate leg, the order in which a loop discovered its pairs is
not behaviour, and any one field moved past the rounding is.  Then the
bumps themselves: each committed v(n) -> v(n+1) table names, per golden,
the digest it held before the bump (which the oracle's version n
renderer must still give for today's run: only the hash changed, not
behaviour) and after it.  The v1 -> v2 table covers the service and
region goldens; the v2 -> v3 table covers those, the trace goldens and
the digests pinned inside tests.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from oracle.golden import read_golden
from oracle.report_reference import (
    reference_digest,
    report_digest_v1,
    report_digest_v2,
)
from oracle.trace_reference import trace_digest_v2
from repro.contract import CONTRACT_VERSION
from repro.obs import TraceCollector
from repro.service.regions import region_scenarios, run_multi_region
from repro.service.simulation import (
    LoadTestReport,
    RecordColumns,
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
    scenario_measurements,
)

TESTS = Path(__file__).resolve().parents[1]
ROOT = TESTS.parent
#: Every bump's old -> new table, oldest first.
TABLES = tuple(
    TESTS / "service" / "golden" / f"contract-v{n}-to-v{n + 1}.json" for n in (1, 2)
)


@pytest.fixture
def sim_loop():
    """Shadow the loop matrix: the goldens' own tests run both loops."""
    return None


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


def _columns(**overrides) -> RecordColumns:
    """Four rows of a routed run: both legs, the fast leg alone, a
    single-version pair, nothing billed."""
    fields = dict(
        request_ids=["a", "b", "c", "d"],
        payloads=["p0", "p1", 2, None],
        tier=np.array([0.0, 0.01, 0.05, 0.05]),
        arrival_s=np.array([0.0, 0.5, 1.0, 1.5]),
        finished_s=np.array([1.0, 1.25, 1.75, 1.5]),
        response_time_s=np.array([1.0, 0.75, 0.75, 0.0]),
        queue_wait_s=np.zeros(4),
        escalated=np.array([True, False, False, False]),
        invocation_cost=np.array([3e-5, 1e-5, 2e-5, 0.0]),
        pairs=[("fast", "slow"), ("slow", None)],
        pair_code=np.array([0, 0, 1, 0]),
        node_seconds_fast=np.array([0.1, 0.1, 0.4, -1.0]),
        node_seconds_accurate=np.array([0.4, -1.0, -1.0, -1.0]),
        confidence=np.full(4, 0.9),
        failed=np.array([False, False, False, True]),
        retries=np.array([0, 0, 1, 3]),
    )
    fields.update(overrides)
    return RecordColumns(**fields)


def _digest(columns: RecordColumns) -> str:
    return LoadTestReport(columns=columns).digest()


def _replaced(columns: RecordColumns, name: str, row: int, value) -> RecordColumns:
    column = getattr(columns, name)
    column = list(column) if isinstance(column, list) else column.copy()
    column[row] = value
    fields = {slot: getattr(columns, slot) for slot in RecordColumns.__slots__}
    return RecordColumns(**{**fields, name: column})


# ----------------------------------------------------------------------
# what the hash must not see
# ----------------------------------------------------------------------
_NANS = np.array(
    [
        0x7FF8_0000_0000_0000,  # the canonical quiet NaN
        0xFFF8_0000_0000_0000,  # its negative
        0x7FF0_0000_0000_0001,  # a signalling NaN with a one-bit payload
        0xFFFF_FFFF_FFFF_FFFF,  # every bit set (would carry out on rounding)
    ],
    dtype=np.uint64,
).view(np.float64)


@pytest.mark.parametrize("name", ["tier", "finished_s", "node_seconds_fast"])
def test_nan_sign_and_payload_do_not_matter(name):
    digests = {_digest(_replaced(_columns(), name, 0, nan)) for nan in _NANS}
    assert len(digests) == 1
    assert digests != {_digest(_columns())}
    negative = LoadTestReport(columns=_replaced(_columns(), name, 0, _NANS[1]))
    assert digests == {reference_digest(negative.records)}


def test_a_nothing_billed_row_ignores_its_pair_and_accurate_leg():
    base = _digest(_columns())
    for pair_code, accurate, fast in (
        (1, -1.0, -1.0),
        (0, 0.4, -1.0),
        (0, np.nan, -7.5),
    ):
        columns = _replaced(_columns(), "pair_code", 3, pair_code)
        columns = _replaced(columns, "node_seconds_accurate", 3, accurate)
        assert _digest(_replaced(columns, "node_seconds_fast", 3, fast)) == base
    # The accurate leg of a row that billed the fast leg alone is unbilled
    # as -1.0 and as nan; a (fast, None) pair says the same.
    assert _digest(_replaced(_columns(), "node_seconds_accurate", 1, np.nan)) == base
    one_leg = _columns(
        pairs=[("fast", "slow"), ("slow", None), ("fast", None)],
        pair_code=np.array([0, 2, 1, 2]),
    )
    assert _digest(one_leg) == base


def test_the_pair_table_order_does_not_matter():
    """A loop that met its pairs in another order, or kept one no row
    billed, ran the same requests the same way."""
    reordered = _columns(
        pairs=[("zeta", "alpha"), ("slow", None), ("fast", "slow")],
        pair_code=np.array([2, 2, 1, 0]),
    )
    assert _digest(reordered) == _digest(_columns())


# ----------------------------------------------------------------------
# what the hash must see
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, row, value",
    [
        ("arrival_s", 1, 0.5 * (1 + 2.0**-37)),  # past the kept bits
        ("node_seconds_accurate", 0, 0.4 * (1 - 2.0**-37)),
        ("request_ids", 2, "c2"),
        ("payloads", 1, "p1 "),
        ("retries", 0, 1),
        ("shed", 3, True),
        ("pair_code", 2, 0),
    ],
)
def test_a_one_field_perturbation_changes_the_digest(name, row, value):
    perturbed = _replaced(_columns(), name, row, value)
    assert _digest(perturbed) != _digest(_columns())
    records = list(LoadTestReport(columns=perturbed).records)
    assert _digest(perturbed) == reference_digest(records)


def test_a_wiggle_below_the_kept_bits_is_not_behaviour():
    wiggled = _replaced(_columns(), "finished_s", 0, np.nextafter(1.0, 2.0))
    assert _digest(wiggled) == _digest(_columns())


# ----------------------------------------------------------------------
# the bumps: v(n) -> v(n+1) tables and versioned goldens
# ----------------------------------------------------------------------
def _table(path: Path) -> dict:
    return json.loads(path.read_text())


def _goldens(*places) -> set:
    return {
        f"{where}/{path.stem}"
        for where in places
        for path in (TESTS / where / "golden").glob("*.json")
        if not path.stem.startswith("contract-")
    }


def test_the_tables_chain_up_to_this_contract():
    versions = [
        (_table(path)["from_contract_version"], _table(path)["to_contract_version"])
        for path in TABLES
    ]
    assert versions == [(1, 2), (2, 3)] and versions[-1][1] == CONTRACT_VERSION


def test_each_table_covers_every_golden_of_its_bump():
    v1_to_v2, v2_to_v3 = (
        {row["golden"] for row in _table(path)["rows"] if "golden" in row}
        for path in TABLES
    )
    # Trace goldens carry no contract version before 3: version 2 left
    # the trace digest as version 1 had it.
    assert v1_to_v2 == _goldens("service", "regions")
    assert v2_to_v3 == _goldens("service", "regions", "obs")


@pytest.fixture(scope="module")
def digests_by_version(toy):
    """``golden -> {version: digest}`` of today's runs, run once each."""
    cache = {}

    def digests(golden: str) -> dict:
        if golden not in cache:
            cache[golden] = _digests(golden, toy)
        return cache[golden]

    return digests


def _digests(golden: str, toy) -> dict:
    """Today's run of a golden scenario, digested by every version's
    renderer that digested its golden."""
    where, name = golden.split("/")
    if where == "obs":
        scenario, _engine = name.rsplit("-", 1)
        spec = {**canonical_scenarios(), **chaos_scenarios()}[scenario]
        collector = TraceCollector()
        run_scenario(spec, toy, trace=collector)
        return {3: collector.digest(), 2: trace_digest_v2(collector)}
    if where == "service":
        spec = {**canonical_scenarios(), **chaos_scenarios()}[name]
        report = run_scenario(spec, toy, check_invariants=True)
        return {
            1: report_digest_v1(report),
            2: report_digest_v2(report),
            3: report.digest(),
        }
    report = run_multi_region(
        region_scenarios()[name], toy, check_invariants=True, keep_reports=True
    )

    def region_digest(renderer) -> str:
        shards = tuple(
            shard
            if shard.report is None  # an emptied shard digests no report
            else dataclasses.replace(shard, digest=renderer(shard.report))
            for shard in report.shards
        )
        return dataclasses.replace(report, shards=shards).digest()

    return {
        1: region_digest(report_digest_v1),
        2: region_digest(report_digest_v2),
        3: report.digest(),
    }


_GOLDEN_ROWS = [
    (path, row) for path in TABLES for row in _table(path)["rows"] if "golden" in row
]


@pytest.mark.parametrize(
    "table, row",
    _GOLDEN_ROWS,
    ids=[f"{path.stem}:{row['golden']}" for path, row in _GOLDEN_ROWS],
)
def test_only_the_hash_changed(table, row, digests_by_version):
    """The oracle's old renderer still gives, for today's run, the digest
    a golden held before a bump, and the new one the digest after it; a
    golden file holds its newest table's digest."""
    old, new = _table(table)["from_contract_version"], _table(table)["to_contract_version"]
    digests = digests_by_version(row["golden"])
    assert (digests[old], digests[new]) == (row[f"v{old}"], row[f"v{new}"])
    if new == CONTRACT_VERSION:
        where, name = row["golden"].split("/")
        golden = read_golden(TESTS / where / "golden" / f"{name}.json")
        assert golden["digest"] == row[f"v{new}"]


_PIN_ROWS = [row for row in _table(TABLES[-1])["rows"] if "pin" in row]


@pytest.mark.parametrize("row", _PIN_ROWS, ids=lambda row: f"{row['pin']}:{row['what']}")
def test_a_digest_pinned_in_a_test_moved_with_its_row(row):
    """The test that pins a digest holds the table's new value, and no
    longer the old one (the test itself checks the value is today's)."""
    source = (ROOT / row["pin"].split("::")[0]).read_text()
    assert row["v3"] in source and row["v2"] not in source


@pytest.mark.parametrize("written", [None, 1, CONTRACT_VERSION + 1])
def test_a_golden_of_another_contract_version_is_refused(tmp_path, written):
    golden = {"scenario": "baseline", "digest": "0" * 64}
    if written is not None:
        golden["contract_version"] = written
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(golden))
    with pytest.raises(AssertionError) as refused:
        read_golden(path)
    message = str(refused.value)
    assert f"contract version {written or 1}," in message
    assert f"under version {CONTRACT_VERSION}" in message
    path.write_text(json.dumps({**golden, "contract_version": CONTRACT_VERSION}))
    assert read_golden(path)["digest"] == "0" * 64
