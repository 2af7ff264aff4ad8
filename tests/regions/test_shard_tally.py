"""run_shard's array tally and column-slice SLO replay against the
per-record walks they replaced."""

import dataclasses

import numpy as np
import pytest

from oracle.scalar import default_loop
from repro.service.control import TelemetryHub
from repro.service.regions import (
    RegionRouter,
    build_shard_tasks,
    region_scenarios,
    run_multi_region,
    run_shard,
)
from repro.service.simulation import NodeCrash
from repro.service.simulation.report import RecordColumns


def _specs():
    """The canonical scenarios plus an outage that loses requests."""
    specs = dict(region_scenarios())
    outage = specs["regional-outage"]
    crash = NodeCrash(at_s=5.0, version="slow", node_index=0, recover_at_s=15.0)
    specs["outage-without-retries"] = dataclasses.replace(
        outage,
        regions=tuple(
            dataclasses.replace(
                region,
                scenario=dataclasses.replace(
                    region.scenario, retry=None, faults=(crash,)
                ),
            )
            if region.name == "eu-west"
            else region
            for region in outage.regions
        ),
    )
    return specs


def _record_walk(task, report):
    """The reference: one pass over materialized records."""
    extra = {
        s.request_id: s.extra_latency_s
        for s in task.submissions
        if s.extra_latency_s
    }
    tally = dict(completed=0, failed=0, shed=0, cost=0.0, last=0.0, latencies=[])
    for record in report.records:
        tally["last"] = max(tally["last"], record.finished_s)
        if record.shed:
            tally["shed"] += 1
        elif record.failed:
            tally["failed"] += 1
        else:
            tally["completed"] += 1
            tally["cost"] += record.invocation_cost
            tally["latencies"].append(
                record.response_time_s + extra.get(record.request_id, 0.0)
            )
    return tally


@pytest.mark.parametrize("name", sorted(_specs()))
def test_shard_tally_equals_the_record_walk(name, toy):
    spec = _specs()[name]
    tasks = build_shard_tasks(
        RegionRouter(spec, toy).plan(), toy, keep_reports=True
    )
    outcomes = set()
    for task in tasks:
        result = run_shard(task)
        if result.report is None:
            continue  # everything failed over: the shard ran nothing
        want = _record_walk(task, result.report)
        assert result.n_completed == want["completed"]
        assert result.n_failed == want["failed"]
        assert result.n_shed == want["shed"]
        assert result.total_cost == want["cost"]
        assert result.last_finished_s == want["last"]
        np.testing.assert_array_equal(
            result.user_latencies_ok, np.asarray(want["latencies"], dtype=float)
        )
        if want["failed"]:
            outcomes.add("failed")
        if any(s.extra_latency_s for s in task.submissions):
            outcomes.add("failover")
    if name == "outage-without-retries":
        assert outcomes == {"failed", "failover"}, "the scenario lost its teeth"


def _publish_rows_as_records(hub, columns, rows, times):
    """The replay the column publish replaced: one record per row."""
    for i, t in zip(range(*rows.indices(len(columns))), times.tolist()):
        hub.publish(columns.record(i), now=t)


def test_columnar_slo_replay_builds_no_record(toy, monkeypatch):
    """A columnar shard with region SLOs publishes column slices: no
    ``RecordColumns.record`` call in ``run_shard``, and the same SLO log
    and digests as publishing one materialised record per row."""
    spec = region_scenarios()["partitioned-brownout"]

    def ap_south():
        tasks = build_shard_tasks(RegionRouter(spec, toy).plan(), toy)
        (task,) = [t for t in tasks if t.region.name == "ap-south"]
        assert task.region.slos, "the scenario lost its region SLOs"
        with default_loop():  # the columnar loop's property, on both legs
            return run_shard(task)

    built = []
    materialize = RecordColumns.record
    monkeypatch.setattr(
        RecordColumns,
        "record",
        lambda self, index: built.append(index) or materialize(self, index),
    )
    by_slice = ap_south()
    assert by_slice.engine_used == "columnar" and built == []
    kinds = {entry.kind for entry in by_slice.slo_log}
    assert kinds == {"region-slo", "region-decision"}, "the replay lost its teeth"
    merged = run_multi_region(spec, toy).digest()

    monkeypatch.setattr(TelemetryHub, "publish_columns", _publish_rows_as_records)
    by_record = ap_south()
    assert len(built) == by_record.n_submitted
    assert by_record.slo_log == by_slice.slo_log
    assert by_record.digest == by_slice.digest
    assert run_multi_region(spec, toy).digest() == merged
