"""Admission policies and the online policy adaptor's state machine."""

import math

import numpy as np
import pytest

from repro.contract import (
    REFIT_BASE_TOLERANCE,
    REFIT_RECOVER_AFTER,
    REFIT_ROLLBACK_MARGIN,
)
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.service.control import (
    AdaptorConfig,
    AdmissionAction,
    AdmissionController,
    AdmissionSpec,
    PolicyAdaptor,
    SLOState,
    TelemetryHub,
    degraded_configuration,
)
from repro.service.simulation import scenario_measurements

from test_telemetry import record


TIERED = EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6))


class TestAdmission:
    def test_admits_everything_outside_breach(self):
        controller = AdmissionController(
            AdmissionSpec(policy="probabilistic", shed_probability=1.0),
            rng=np.random.default_rng(0),
        )
        for state in (SLOState.OK, SLOState.WARN):
            decision = controller.decide(state=state, planned=TIERED)
            assert decision.action is AdmissionAction.ADMIT
        assert controller.n_shed == 0

    def test_probabilistic_shed_is_seed_deterministic(self):
        def run(seed):
            controller = AdmissionController(
                AdmissionSpec(policy="probabilistic", shed_probability=0.5),
                rng=np.random.default_rng(seed),
            )
            return [
                controller.decide(state=SLOState.BREACH, planned=TIERED).action
                for _ in range(50)
            ]

        assert run(7) == run(7)
        assert AdmissionAction.SHED in run(7)
        assert AdmissionAction.ADMIT in run(7)

    def test_degrade_downgrades_to_fast_single(self):
        controller = AdmissionController(AdmissionSpec(policy="degrade"))
        decision = controller.decide(state=SLOState.BREACH, planned=TIERED)
        assert decision.action is AdmissionAction.DEGRADE
        assert decision.configuration.kind == "single"
        assert decision.configuration.versions == ("fast",)

    def test_degraded_arrivals_share_their_plans_fallback(self):
        # One fallback per planned configuration: the engine plans each
        # configuration object once, so a fresh one per arrival re-plans.
        controller = AdmissionController(AdmissionSpec(policy="degrade"))
        first, second = (
            controller.decide(state=SLOState.BREACH, planned=TIERED)
            for _ in range(2)
        )
        assert second.configuration is first.configuration
        assert controller.n_degraded == 2
        other = EnsembleConfiguration("seq2", SequentialPolicy("fast", "slow", 0.5))
        third = controller.decide(state=SLOState.BREACH, planned=other)
        assert third.configuration is not first.configuration

    def test_degrade_admits_when_already_single(self):
        controller = AdmissionController(AdmissionSpec(policy="degrade"))
        single = EnsembleConfiguration("osfa", SingleVersionPolicy("slow"))
        decision = controller.decide(state=SLOState.BREACH, planned=single)
        assert decision.action is AdmissionAction.ADMIT
        assert degraded_configuration(single) is None

    def test_unknown_policy_rejected(self):
        # The policies are probabilistic and degrade; "priority" is not one.
        for policy in ("coinflip", "priority"):
            with pytest.raises(ValueError, match="unknown admission policy"):
                AdmissionSpec(policy=policy)


def breach_snapshot(hub_window=30.0, now=100.0, n=30, latency=3.0):
    hub = TelemetryHub(window_s=hub_window)
    t0 = now - hub_window + 1.0
    for i in range(n):
        hub.publish(
            record(f"r{i:03d}", t0 + i * 0.5, response_time_s=latency)
        )
    return hub.snapshot(now)


def window_snapshot_over(measurements, now=100.0, n=40, latency=3.0):
    """A breach-grade snapshot whose payloads name measured rows."""
    hub = TelemetryHub(window_s=50.0)
    t0 = now - 49.0
    for i in range(n):
        hub.publish(
            record(
                f"q{i:03d}",
                t0 + i,
                response_time_s=latency,
                payload=measurements.request_ids[i % measurements.n_requests],
            ),
            t0 + i,
        )
    return hub.snapshot(now)


class TestAdaptor:
    def config(self, **kw):
        defaults = dict(
            refit_interval_s=1.0,
            min_window_samples=10,
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
        )
        defaults.update(kw)
        return AdaptorConfig(**defaults)

    def adaptor(self, measurements, **kw):
        return PolicyAdaptor(
            self.config(**kw),
            measurements=measurements,
            anchor=EnsembleConfiguration(
                "anchor_seq", SequentialPolicy("fast", "slow", 0.6)
            ),
            seed=3,
        )

    @pytest.fixture(scope="class")
    def toy(self):
        return scenario_measurements()

    def test_anchor_colliding_with_a_candidate_id_refused(self, toy):
        """Re-fit candidates are keyed by id: an anchor named like an
        enumerated configuration is refused when the adaptor is built,
        not at its first re-fit."""
        with pytest.raises(ValueError, match="'cfg_001'"):
            PolicyAdaptor(
                self.config(),
                measurements=toy,
                anchor=EnsembleConfiguration(
                    "cfg_001", SequentialPolicy("fast", "slow", 0.6)
                ),
            )

    def test_min_window_guardrail(self, toy):
        adaptor = self.adaptor(toy, min_window_samples=50)
        snap = window_snapshot_over(toy, n=10)
        assert adaptor.on_tick(snap, SLOState.BREACH, 100.0) is None
        assert adaptor.events[-1].kind == "refit-skipped"
        # The guardrail still consumed the re-fit slot (no tight loop).
        assert adaptor.on_tick(snap, SLOState.BREACH, 100.1) is None

    def test_widening_converges_to_cheaper_policy(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        swaps = []
        for _ in range(8):
            snap = window_snapshot_over(toy, now=now)
            swap = adaptor.on_tick(snap, SLOState.BREACH, now)
            if swap is not None:
                swaps.append(swap)
            now += 1.0
        assert swaps, "persistent breach must eventually re-fit a swap"
        final = swaps[-1]
        # The cost guard guarantees every swap lowers worst-case cost,
        # so the trajectory ends on something cheaper than the anchor
        # (on the toy geometry: the fast single version).
        assert final.versions == ("fast",)
        assert adaptor.effective_tolerance > 0.0

    def test_swaps_never_increase_worst_case_cost(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        for _ in range(8):
            snap = window_snapshot_over(toy, now=now)
            adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
        kinds = [e.kind for e in adaptor.events]
        # The first widening step lands on the most-accurate single
        # version (the only config inside a tiny tolerance) — the cost
        # guard must refuse it rather than deepen a capacity breach.
        assert "refit-noimprove" in kinds

    def test_recovery_restores_anchor_and_clears_blacklist(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        while adaptor.active.config_id == adaptor.anchor.config_id:
            snap = window_snapshot_over(toy, now=now)
            adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
            assert now < 130.0, "never swapped under persistent breach"
        # Tightening may swap onto the anchor at a rung above the base
        # (it competes on every rung); recovery ends at the base rung.
        restored = None
        while adaptor.effective_tolerance != REFIT_BASE_TOLERANCE:
            healthy = window_snapshot_over(toy, now=now, latency=0.1)
            swap = adaptor.on_tick(healthy, SLOState.OK, now)
            restored = swap if swap is not None else restored
            now += 1.0
            assert now < 160.0, "never tightened back to the anchor"
        assert adaptor.active.config_id == adaptor.anchor.config_id
        assert adaptor.effective_tolerance == REFIT_BASE_TOLERANCE
        assert any(e.kind == "anchor-restore" for e in adaptor.events) or (
            restored.config_id == adaptor.anchor.config_id
        )

    def test_rollback_on_regression_blacklists_swap(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        swap = None
        while swap is None:
            snap = window_snapshot_over(toy, now=now, latency=3.0)
            swap = adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
        swapped_id = swap.config_id
        # One interval later things are *worse* and still breaching:
        # the judgement must revert and blacklist the swap.
        worse = window_snapshot_over(toy, now=now + 1.0, latency=9.0)
        reverted = adaptor.on_tick(worse, SLOState.BREACH, now + 1.0)
        assert reverted is not None
        assert reverted.config_id == adaptor.anchor.config_id
        assert any(e.kind == "rollback" for e in adaptor.events)
        assert swapped_id in adaptor._rejected
        # The widened tolerance is kept: pressure ratchets, the bad rung
        # is skipped (refit-rejected or a different, wider choice).
        tolerance_after = adaptor.effective_tolerance
        assert tolerance_after > REFIT_BASE_TOLERANCE

    def test_refits_are_deterministic(self, toy):
        def trajectory():
            adaptor = self.adaptor(toy)
            now, ids = 100.0, []
            for _ in range(8):
                snap = window_snapshot_over(toy, now=now)
                swap = adaptor.on_tick(snap, SLOState.BREACH, now)
                ids.append(None if swap is None else swap.config_id)
                now += 1.0
            return ids

        assert trajectory() == trajectory()

    def test_warn_holds_position(self, toy):
        adaptor = self.adaptor(toy)
        snap = window_snapshot_over(toy)
        assert adaptor.on_tick(snap, SLOState.WARN, 100.0) is None
        assert adaptor.active.config_id == adaptor.anchor.config_id

    def test_tightens_after_exactly_the_contract_recovery_streak(self, toy):
        """One tightening step needs ``REFIT_RECOVER_AFTER`` consecutive
        OK ticks, and takes it on the last of them."""
        adaptor = self.adaptor(toy)
        now = 100.0
        while adaptor.effective_tolerance <= REFIT_BASE_TOLERANCE:
            snap = window_snapshot_over(toy, now=now)
            adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
            assert now < 130.0, "never widened under persistent breach"
        widened = adaptor.effective_tolerance
        now += 10.0  # past the refit interval and the rollback judgement
        healthy = window_snapshot_over(toy, now=now, latency=0.1)
        for _ in range(REFIT_RECOVER_AFTER - 1):
            assert adaptor.on_tick(healthy, SLOState.OK, now) is None
            assert adaptor.effective_tolerance == widened
            now += 1.0
        adaptor.on_tick(healthy, SLOState.OK, now)
        assert adaptor.effective_tolerance < widened

    def _judged(self, toy, latency):
        """An adaptor that swapped at a 3 s p95 and was judged, still in
        BREACH one refit interval later, at a p95 of ``latency``."""
        adaptor = self.adaptor(toy)
        now, swap = 100.0, None
        while swap is None:
            snap = window_snapshot_over(toy, now=now, latency=3.0)
            swap = adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
        judged_at = now + 1.0
        later = window_snapshot_over(toy, now=judged_at, latency=latency)
        assert later.p95_latency.value == latency
        adaptor.on_tick(later, SLOState.BREACH, judged_at)
        return [event.kind for event in adaptor.events]

    def test_rolls_back_only_above_the_contract_margin(self, toy):
        at_margin = 3.0 * REFIT_ROLLBACK_MARGIN
        assert "rollback" not in self._judged(toy, at_margin)
        assert "rollback" in self._judged(toy, math.nextafter(at_margin, math.inf))


class TestLadder:
    """The tolerance ladder built at construction: one rule per rung,
    generated on the whole table."""

    #: Rung spacing per degradation mode: the toy baseline error is near
    #: zero, so relative degradations run to ~7.
    SPACING = {"absolute": (0.03, 0.30), "relative": (0.5, 8.0)}

    @pytest.fixture(scope="class")
    def toy(self):
        return scenario_measurements()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    def test_rungs_fit_their_tolerance_and_get_cheaper(self, toy, mode, seed):
        step, top = self.SPACING[mode]
        adaptor = PolicyAdaptor(
            AdaptorConfig(
                degradation_mode=mode, tolerance_step=step, max_tolerance=top
            ),
            measurements=toy,
            anchor=EnsembleConfiguration(
                "anchor_seq", SequentialPolicy("fast", "slow", 0.6)
            ),
            seed=seed,
        )
        estimates = adaptor._estimates
        ladder = adaptor._ladder
        assert ladder[0][0] == REFIT_BASE_TOLERANCE and ladder[-1][0] == top
        baseline = (toy.most_accurate_version(),)
        for tolerance, rule in ladder:
            fits = estimates[rule.config_id].error_degradation <= tolerance
            fallback = rule.versions == baseline and not any(
                e.error_degradation <= tolerance for e in estimates.values()
            )
            assert fits or fallback, (tolerance, rule.config_id)
        costs = [estimates[rule.config_id].objective_value("cost") for _, rule in ladder]
        assert costs == sorted(costs, reverse=True)
        # The walk is non-trivial: some rung is cheaper than the base one.
        assert costs[-1] < costs[0]
