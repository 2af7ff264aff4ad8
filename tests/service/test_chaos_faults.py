"""Behavioural tests for the chaos vocabulary, fault by fault.

Each chaos event must do what it says on the virtual clock — latency
inflation and silent confidence loss for gray failures, load-conditional
peer failures for cascades, correlated bursts and budget-bounded
amplification for retry storms, paired warmup windows for cold starts,
and held-then-released surges for thundering herds — all with the
invariant checker on.

Chaos runs and their fault-free twins drain on the default path, the
columnar loop; the differential suite holds it to the scalar oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.service.simulation import (
    ColdStartWave,
    GrayFailure,
    PoissonArrivals,
    RetryPolicy,
    ThunderingHerd,
    chaos_scenarios,
    run_scenario,
    scenario_measurements,
)


@pytest.fixture
def sim_loop():
    """Shadow the loop matrix: chaos runs pick the scalar loop themselves."""
    return None


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()


@pytest.fixture(scope="module")
def chaos():
    return chaos_scenarios()


def run_checked(spec, toy):
    return run_scenario(spec, toy, check_invariants=True)


def fault_kinds(report):
    return [entry.kind for entry in report.fault_log]


# ----------------------------------------------------------------------
# all five, generically: invariants + determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(chaos_scenarios()))
def test_chaos_scenario_runs_deterministically_under_invariants(name, chaos, toy):
    spec = chaos[name]
    first = run_checked(spec, toy)
    second = run_checked(spec, toy)
    assert first.digest() == second.digest()
    assert first.n_requests == spec.n_requests


@pytest.mark.parametrize("name", sorted(chaos_scenarios()))
def test_chaos_changes_behaviour_vs_fault_free_run(name, chaos, toy):
    """Removing the fault schedule must change the pinned behaviour —
    otherwise the scenario exercises nothing."""
    spec = chaos[name]
    healthy = replace(spec, name=f"{spec.name}-healthy", faults=())
    assert run_checked(spec, toy).digest() != run_checked(healthy, toy).digest()


# ----------------------------------------------------------------------
# gray failure: slow but alive, silently less confident
# ----------------------------------------------------------------------
def test_gray_failure_inflates_latency_and_escalations(chaos, toy):
    spec = chaos["gray-failure"]
    gray = run_checked(spec, toy)
    healthy = run_checked(replace(spec, name="gray-healthy", faults=()), toy)

    kinds = fault_kinds(gray)
    assert "gray" in kinds and "gray-restore" in kinds
    # Slow: the victim keeps serving, so tail latency inflates.
    assert gray.summary()["p95_latency_s"] > healthy.summary()["p95_latency_s"]
    # Alive: nothing crashes, nothing fails, nobody retries.
    assert gray.summary()["availability"] == healthy.summary()["availability"]
    assert gray.summary()["total_retries"] == 0
    # Silent quality loss: deflated confidences cross the escalation
    # threshold more often than healthy answers do.
    assert gray.summary()["escalation_rate"] > healthy.summary()["escalation_rate"]


def test_gray_failure_out_of_range_node_is_skipped(chaos, toy):
    spec = chaos["gray-failure"]
    oob = tuple(
        replace(f, node_index=99) if isinstance(f, GrayFailure) else f
        for f in spec.faults
    )
    report = run_checked(replace(spec, name="gray-oob", faults=oob), toy)
    assert "skipped" in fault_kinds(report)
    assert "gray" not in fault_kinds(report)


# ----------------------------------------------------------------------
# cascade: a crash stresses the survivors
# ----------------------------------------------------------------------
def test_cascade_opens_window_and_propagates_failures(chaos, toy):
    spec = chaos["cascade"]
    cascaded = run_checked(spec, toy)
    kinds = fault_kinds(cascaded)
    assert "crash" in kinds
    assert "cascade" in kinds  # the crash opened a cascade window

    # Against the same crash without the cascade policy, the cascade
    # must add failed completions — visible as extra retries.
    crash_only = tuple(f for f in spec.faults if not hasattr(f, "window_s"))
    baseline = run_checked(
        replace(spec, name="cascade-crash-only", faults=crash_only), toy
    )
    assert "cascade" not in fault_kinds(baseline)
    assert (
        cascaded.summary()["total_retries"] > baseline.summary()["total_retries"]
    )


# ----------------------------------------------------------------------
# retry storm: correlated failures, budget-bounded amplification
# ----------------------------------------------------------------------
def test_retry_storm_budgets_bound_amplification(chaos, toy):
    spec = chaos["retry-storm"]
    bounded = run_checked(spec, toy)
    assert "storm-window" in fault_kinds(bounded)
    assert bounded.n_retry_denied > 0  # the budgets actually bind
    denied = [r for r in bounded.records if r.retry_denied]
    assert denied
    budget = spec.retry.retry_budget
    for record in bounded.records:
        assert record.retries <= budget * len(record.versions_used) + budget

    unbounded = run_checked(
        replace(
            spec,
            name="storm-unbounded",
            retry=replace(
                spec.retry,
                retry_budget=None,
                max_inflight_retries=None,
                max_total_retries=None,
            ),
        ),
        toy,
    )
    assert unbounded.n_retry_denied == 0
    # Removing the budgets lets the storm amplify load further.
    assert (
        unbounded.summary()["total_retries"] > bounded.summary()["total_retries"]
    )
    assert unbounded.retry_amplification > bounded.retry_amplification
    assert bounded.retry_amplification > 1.0


def test_retry_denial_is_digest_visible(chaos, toy):
    """A denied retry changes the pinned behaviour — the |retry-denied
    digest flag means budgets can never regress silently."""
    spec = chaos["retry-storm"]
    a = run_checked(spec, toy)
    b = run_checked(
        replace(
            spec,
            retry=replace(spec.retry, retry_budget=None, max_inflight_retries=None),
        ),
        toy,
    )
    assert a.digest() != b.digest()


def test_retry_storm_summary_reports_denials(chaos, toy):
    report = run_checked(chaos["retry-storm"], toy)
    summary = report.summary()
    assert summary["n_retry_denied"] == report.n_retry_denied
    assert summary["retry_amplification"] == report.retry_amplification


# ----------------------------------------------------------------------
# cold-start wave: fresh capacity warms up before it helps
# ----------------------------------------------------------------------
def test_cold_start_wave_pairs_warmups(chaos, toy):
    spec = chaos["cold-start"]
    report = run_checked(spec, toy)
    kinds = fault_kinds(report)
    assert kinds.count("cold-start") > 0  # the autoscaler added nodes
    assert kinds.count("warmed") <= kinds.count("cold-start")

    # The wave only slows nodes added mid-run, so against the same
    # scenario without it, tail latency during the spike is worse.
    healthy = run_checked(replace(spec, name="cold-healthy", faults=()), toy)
    assert report.summary()["p95_latency_s"] >= healthy.summary()["p95_latency_s"]


def test_cold_start_without_scaleup_is_inert(chaos, toy):
    """A cold-start wave with no node churn logs nothing and leaves the
    digest untouched — the policy prices *new* capacity only."""
    spec = chaos["gray-failure"]  # fixed pools, no autoscaler
    with_wave = replace(
        spec,
        name="wave-inert",
        faults=(ColdStartWave(warmup_s=5.0, speed_factor=0.5),),
    )
    base = run_checked(replace(spec, name="wave-base", faults=()), toy)
    waved = run_checked(with_wave, toy)
    assert "cold-start" not in fault_kinds(waved)
    assert waved.digest() == base.digest()


# ----------------------------------------------------------------------
# thundering herd: held arrivals return as one surge
# ----------------------------------------------------------------------
def test_thundering_herd_holds_and_releases_arrivals(chaos, toy):
    spec = chaos["thundering-herd"]
    herd = next(f for f in spec.faults if isinstance(f, ThunderingHerd))
    report = run_checked(spec, toy)
    assert "herd" in fault_kinds(report)

    arrivals = np.array([r.arrival_s for r in report.records])
    in_window = (arrivals >= herd.start_s) & (arrivals < herd.end_s)
    assert not in_window.any()  # the outage held everything
    released = (arrivals >= herd.end_s) & (arrivals < herd.end_s + herd.spread_s)
    assert released.sum() >= 3  # ...and released it as a surge

    # The surge must hurt: worse tail latency than the same load spread out.
    healthy = run_checked(replace(spec, name="herd-healthy", faults=()), toy)
    assert report.summary()["p95_latency_s"] > healthy.summary()["p95_latency_s"]
    # The herd draws nothing: the payload picks that follow the arrival
    # draws are the healthy run's.
    def payloads(run):
        return {r.request_id: r.payload for r in run.records}

    assert payloads(report) == payloads(healthy)


def test_thundering_herd_arrival_transform_is_order_preserving():
    herd = ThunderingHerd(start_s=2.0, end_s=4.0, spread_s=0.1)
    raw = PoissonArrivals(5.0).times(60, np.random.default_rng(7))
    out = herd.apply(raw)
    assert out.shape == raw.shape
    assert np.all(np.diff(out) >= 0.0)  # sorted
    assert not ((out >= 2.0) & (out < 4.0)).any()
    held = (raw >= 2.0) & (raw < 4.0)
    assert herd.held(raw) == int(held.sum())
    # Held arrivals land inside the release burst, original order kept.
    released = out[(out >= 4.0) & (out < 4.1)]
    assert len(released) == int(held.sum())
    # Untouched arrivals pass through bit-exactly.
    np.testing.assert_array_equal(np.sort(raw[~held]), out[~np.isin(out, released)])


def test_thundering_herd_spread_zero_releases_at_end(toy):
    herd = ThunderingHerd(start_s=1.0, end_s=3.0, spread_s=0.0)
    raw = PoissonArrivals(5.0).times(40, np.random.default_rng(3))
    out = herd.apply(raw)
    held = int(((raw >= 1.0) & (raw < 3.0)).sum())
    assert held > 0
    assert int((out == 3.0).sum()) == held


# ----------------------------------------------------------------------
# retry budgets without chaos: budgets are a first-class policy knob
# ----------------------------------------------------------------------
def test_zero_retry_budget_disables_retries_entirely(chaos, toy):
    spec = chaos["cascade"]
    no_retries = run_checked(
        replace(
            spec,
            name="cascade-no-budget",
            retry=RetryPolicy(max_attempts=3, retry_budget=0),
        ),
        toy,
    )
    assert no_retries.summary()["total_retries"] == 0
    assert no_retries.n_retry_denied > 0
