"""The row door: ``ServingSimulator.submit_rows``.

``run()`` and a region shard submit parallel columns through one public
method, which checks each distinct tolerance the way a
:class:`ServiceRequest` constructor would and hands the rows to the one
store writer.  A refusal there leaves the store as it found it, and
raises what per-request submission raises.
"""

import math

import pytest

from repro.service.regions import (
    RegionRouter,
    build_shard_tasks,
    region_scenarios,
    run_shard,
)
from repro.service.request import Objective, ServiceRequest
from repro.service.simulation import (
    PoissonArrivals,
    ScenarioSpec,
    ServingSimulator,
    build_replay_cluster,
    scenario_measurements,
)
from repro.service.simulation.scenarios import _tiered_configuration

BAD_TOLERANCES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "negative": -0.1,
}

BAD_TIMES = {
    "past": (-1.0, "cannot schedule at t=-1.000000 before now=0.000000"),
    "nan": (math.nan, "cannot schedule at t=nan: not a finite time"),
    "inf": (math.inf, "cannot schedule at t=inf: not a finite time"),
}


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


def _sim(toy):
    return ServingSimulator(
        build_replay_cluster(toy, {"fast": 1, "slow": 1}),
        configuration=_tiered_configuration(),
    )


def _store(sim):
    """The submission store's columns and the pending count."""
    store = sim._store
    columns = {name: list(getattr(store, name)) for name in store.__slots__}
    return columns, sim._remaining


def _submit_rows(sim, toy, *, at_times=(0.0, 1.0, 2.0), tolerances=None):
    n = len(at_times)
    sim.submit_rows(
        [f"row_{len(sim._store.ids) + i}" for i in range(n)],
        [toy.request_ids[i] for i in range(n)],
        list(at_times),
        list(tolerances) if tolerances is not None else [0.0] * n,
        [Objective.RESPONSE_TIME] * n,
    )


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _tolerance_message(tolerance):
    return _refusal(lambda: ServiceRequest("r", "p", tolerance=tolerance))


# ----------------------------------------------------------------------
# tolerances that name no tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", BAD_TOLERANCES.values(), ids=BAD_TOLERANCES)
def test_scenario_spec_refuses_a_tolerance_that_names_no_tier(bad):
    with pytest.raises(ValueError, match="tolerance") as info:
        ScenarioSpec(
            name="bad-tolerance",
            arrivals=PoissonArrivals(5.0),
            n_requests=10,
            pools={"fast": 1, "slow": 1},
            configuration=_tiered_configuration(),
            tolerance=bad,
        )
    assert str(info.value) == _tolerance_message(bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES.values(), ids=BAD_TOLERANCES)
def test_run_refuses_a_tolerance_that_names_no_tier(bad, toy):
    sim = _sim(toy)
    before = _store(sim)
    message = _refusal(
        lambda: sim.run(
            PoissonArrivals(5.0),
            10,
            tolerance=bad,
            payload_ids=toy.request_ids,
        )
    )
    assert message == _tolerance_message(bad)
    assert _store(sim) == before
    assert sim.engine_used is None


@pytest.mark.parametrize("bad", BAD_TOLERANCES.values(), ids=BAD_TOLERANCES)
def test_row_door_refuses_a_bad_tolerance_all_or_nothing(bad, toy):
    sim = _sim(toy)
    _submit_rows(sim, toy)
    before = _store(sim)
    message = _refusal(
        lambda: _submit_rows(sim, toy, tolerances=(0.0, bad, 0.01))
    )
    assert message == _tolerance_message(bad)
    assert _store(sim) == before
    # The refusal cost nothing: the rows already in drain as submitted.
    assert len(sim.drain().columns) == 3


# ----------------------------------------------------------------------
# arrival times: the messages per-request submission raises
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BAD_TIMES)
def test_row_door_refuses_bad_times_like_submit_batch(name, toy):
    at_time, expected = BAD_TIMES[name]
    rows = _sim(toy)
    _submit_rows(rows, toy)
    before = _store(rows)
    message = _refusal(
        lambda: _submit_rows(rows, toy, at_times=(3.0, at_time, 4.0))
    )
    assert message == expected
    assert _store(rows) == before

    batch = _sim(toy)
    request = ServiceRequest("req", toy.request_ids[0])
    assert _refusal(lambda: batch.submit_batch([request], [at_time])) == expected


# ----------------------------------------------------------------------
# one door for run() and the shard path
# ----------------------------------------------------------------------
@pytest.fixture
def door_log(monkeypatch):
    """Every ``submit_rows`` / ``_enqueue`` call, in order, and how many
    :class:`ServiceRequest` objects were built between the last
    ``submit_rows`` and each drain."""
    log = []
    built = []
    submit_rows = ServingSimulator.submit_rows
    enqueue = ServingSimulator._enqueue
    drain = ServingSimulator.drain
    post_init = ServiceRequest.__post_init__

    def logged_submit_rows(self, request_ids, *columns):
        log.append(("rows", list(request_ids)))
        built.clear()
        return submit_rows(self, request_ids, *columns)

    def logged_enqueue(self, ids, *columns):
        log.append(("enqueue", list(ids)))
        return enqueue(self, ids, *columns)

    def logged_drain(self):
        log.append(("drain", len(built)))
        return drain(self)

    def counted_post_init(self):
        built.append(self.request_id)
        post_init(self)

    monkeypatch.setattr(ServingSimulator, "submit_rows", logged_submit_rows)
    monkeypatch.setattr(ServingSimulator, "_enqueue", logged_enqueue)
    monkeypatch.setattr(ServingSimulator, "drain", logged_drain)
    monkeypatch.setattr(ServiceRequest, "__post_init__", counted_post_init)
    return log


def test_run_submits_through_the_row_door(toy, door_log):
    report = _sim(toy).run(
        PoissonArrivals(5.0), 12, payload_ids=toy.request_ids
    )
    ids = list(report.columns.request_ids)
    assert sorted(ids) == [f"load_{i:06d}" for i in range(12)]
    assert door_log == [
        ("rows", sorted(ids)),
        ("enqueue", sorted(ids)),
        ("drain", 0),
    ]


def test_shards_submit_their_planned_rows_through_the_row_door(toy, door_log):
    spec = region_scenarios()["regional-outage"]
    tasks = build_shard_tasks(RegionRouter(spec, toy).plan(), toy)
    assert any(task.n_outgoing for task in tasks), "the outage lost its teeth"
    for task in tasks:
        door_log.clear()
        run_shard(task)
        ids = task.submissions.request_ids
        # One door, one write, and no request object before the drain.
        assert door_log == [("rows", ids), ("enqueue", ids), ("drain", 0)]
