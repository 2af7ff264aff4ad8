"""The report digest's contract (:mod:`repro.contract`, version 2).

What the column hash must see and must not: a NaN is a NaN whatever its
sign and payload, a row that billed nothing says nothing about its pair
or its accurate leg, the order in which a loop discovered its pairs is
not behaviour, and any one field moved past the rounding is.  Then the
bump itself: the committed v1 -> v2 table names, for every service and
region golden, the digest the golden held before the bump (which the
oracle's v1 renderer must still give for today's run: only the hash
changed, not behaviour) and the one it holds now.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from oracle.golden import read_golden
from oracle.report_reference import reference_digest, report_digest_v1
from repro.contract import CONTRACT_VERSION
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
TABLE = TESTS / "service" / "golden" / "contract-v1-to-v2.json"


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
# the bump: v1 -> v2 table and versioned goldens
# ----------------------------------------------------------------------
def _table_rows():
    return json.loads(TABLE.read_text())["rows"]


def test_the_table_covers_every_golden():
    goldens = {
        f"{where}/{path.stem}"
        for where in ("service", "regions")
        for path in (TESTS / where / "golden").glob("*.json")
        if path != TABLE
    }
    assert {row["golden"] for row in _table_rows()} == goldens
    table = json.loads(TABLE.read_text())
    assert (table["from_contract_version"], table["to_contract_version"]) == (
        1,
        CONTRACT_VERSION,
    )


def _v1_and_v2(golden: str, toy):
    """Today's run of a golden scenario: its v1 and v2 digests."""
    where, name = golden.split("/")
    if where == "service":
        spec = {**canonical_scenarios(), **chaos_scenarios()}[name]
        report = run_scenario(spec, toy, check_invariants=True)
        return report_digest_v1(report), report.digest()
    report = run_multi_region(
        region_scenarios()[name], toy, check_invariants=True, keep_reports=True
    )
    v1_shards = tuple(
        shard
        if shard.report is None  # an emptied shard digests no report
        else dataclasses.replace(shard, digest=report_digest_v1(shard.report))
        for shard in report.shards
    )
    return dataclasses.replace(report, shards=v1_shards).digest(), report.digest()


@pytest.mark.parametrize("row", _table_rows(), ids=lambda row: row["golden"])
def test_only_the_hash_changed(row, toy):
    """The oracle's v1 renderer still gives, for today's run, the digest
    the golden held before the bump; the v2 digest is the golden's now."""
    where, name = row["golden"].split("/")
    assert _v1_and_v2(row["golden"], toy) == (row["v1"], row["v2"])
    assert read_golden(TESTS / where / "golden" / f"{name}.json")["digest"] == row["v2"]


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
