"""Online tier-policy adaptation: walk a tolerance ladder on SLO state.

The offline rule generator fits tier policies once, against curated
training traffic; a serving system under a flash crowd or a half-dead
accurate pool is not the system that traffic was measured on.
:class:`PolicyAdaptor` closes the loop the way the paper splits its
router: rule generation is offline, serving is a lookup.

* at construction one
  :class:`~repro.core.rule_generator.RoutingRuleGenerator` bootstraps
  the candidate space (the enumerated configurations plus the anchor)
  over the whole measurement table and emits one rule per **rung** of a
  tolerance ladder, from the base tolerance to ``max_tolerance`` in
  ``tolerance_step`` steps; the ladder and the candidates' worst-case
  estimates are kept, the generator is not;
* the deployed configuration is the **anchor**, at the base rung;
* while the SLOs are in BREACH the adaptor *widens*, one rung per refit
  interval, hot-swapping the executor onto the rung's rule — under load
  that rule is a cheaper, faster ensemble (a lower escalation
  threshold, or the fast version alone), which is exactly what frees
  the saturated pool;
* once the SLOs have been OK long enough it tightens back rung by rung,
  and at the base rung it restores the anchor verbatim — a healthy
  system converges to exactly its offline policy.

A "refit" is that rung move: a lookup, with no bootstrap on the serving
path.

Guardrails:

* **minimum window size** — no refit while the trailing window holds
  fewer than ``min_window_samples`` answered requests (the SLO evidence
  behind the move would be noise);
* **no cost-increasing swaps under breach** — while breaching a swap
  must strictly lower the worst-case cost (node-seconds per request) of
  the active policy, as the ladder's bootstrap estimated both; without
  this, a narrow first widening step can swap onto the most accurate
  single version — the one configuration guaranteed to deepen a
  capacity breach;
* **rollback on SLO regression** — every swap records the pre-swap p95;
  if, one refit interval later, the system is still in BREACH and the
  (confidently estimated) p95 got materially worse, the swap is
  reverted and the configuration blacklisted until recovery.  The
  widened rung is *kept*: under a persisting breach the adaptation
  pressure only ratchets up (the adaptive-anchoring move), so the next
  refit tries a wider rung instead of re-trying the bad swap.

The adaptor draws no randomness of its own: the ladder's bootstrap is
seeded by the plane seed, so closed-loop runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import math

from repro import checks, contract
from repro.core.configuration import (
    EnsembleConfiguration,
    enumerate_configurations,
)
from repro.core.rule_generator import RoutingRuleGenerator
from repro.service.control.slo import SLOState
from repro.service.control.telemetry import WindowSnapshot
from repro.service.measurement import MeasurementSet
from repro.service.request import Objective

__all__ = ["AdaptorConfig", "AdaptorEvent", "PolicyAdaptor"]

#: The objective every rung optimises: COST, deliberately *not* the
#: latency objective even for latency breaches.  Measured response times
#: are contention-free, so under saturation the latency objective
#: favours concurrent ensembles that overlap legs, and double the
#: node-seconds per request: exactly the wrong direction when the breach
#: is capacity.  Worst-case cost is node-seconds per request, i.e.
#: inverse capacity; minimising it is what drains the queues.
_REFIT_OBJECTIVE = Objective.COST


@dataclass(frozen=True)
class AdaptorConfig:
    """How the online adaptor builds and walks its tolerance ladder.

    The ladder's bootstrap settings, the recovery debounce, the rollback
    margin and the base tolerance are :mod:`repro.contract` constants.

    Attributes:
        refit_interval_s: Minimum virtual time between refits (also the
            grace period before a swap is judged for rollback).
        min_window_samples: Refit guardrail — the trailing window must
            hold at least this many answered requests.
        tolerance_step: Rung spacing, in the tier-tolerance units of
            ``degradation_mode`` (relative degradation is a *fraction of
            the baseline error*, so useful steps depend on the service's
            error scale; absolute mode steps in error units).
        max_tolerance: The top rung's tolerance.
        degradation_mode: ``"relative"`` or ``"absolute"`` — forwarded
            to the rule generator.
        thresholds: Confidence-threshold grid of the candidate space.
    """

    refit_interval_s: float = 2.0
    min_window_samples: int = 20
    tolerance_step: float = 0.05
    max_tolerance: float = 0.25
    degradation_mode: str = "relative"
    thresholds: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

    def __post_init__(self) -> None:
        checks.positive("refit_interval_s", self.refit_interval_s)
        checks.integer("min_window_samples", self.min_window_samples, minimum=2)
        checks.positive("tolerance_step", self.tolerance_step)
        checks.ordered(
            "the base tolerance", contract.REFIT_BASE_TOLERANCE,
            "max_tolerance", self.max_tolerance, strict=False,
        )
        if self.degradation_mode not in ("relative", "absolute"):
            raise ValueError("degradation_mode must be relative or absolute")
        # The ladder's design space would refuse these; refuse them here.
        for threshold in self.thresholds:
            checks.probability("thresholds", threshold)


@dataclass(frozen=True)
class AdaptorEvent:
    """One adaptor action, for the control log.

    Attributes:
        kind: ``"swap"``, ``"anchor-restore"``,
            ``"rollback"``, ``"refit-nochange"``, ``"refit-noimprove"``,
            ``"refit-rejected"`` or ``"refit-skipped"``.
        detail: Human-readable context.
    """

    kind: str
    detail: str


class _PendingJudgement:
    """Bookkeeping for rollback: what the world looked like pre-swap."""

    __slots__ = ("previous", "p95_before", "judge_at")

    def __init__(self, previous, p95_before, judge_at):
        self.previous = previous
        self.p95_before = p95_before
        self.judge_at = judge_at


class PolicyAdaptor:
    """Widen-tighten state machine over a tolerance ladder.

    Args:
        config: The adaptation schedule and guardrails.
        measurements: The measurement table the ladder is generated on,
            every row of it.
        anchor: The offline-fit configuration the system deploys with
            (and converges back to).
        seed: Seed of the ladder's bootstrap.
    """

    def __init__(
        self,
        config: AdaptorConfig,
        *,
        measurements: MeasurementSet,
        anchor: EnsembleConfiguration,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.measurements = measurements
        self.anchor = anchor
        self.active = anchor
        # The anchor competes on (and is estimated for) every rung, so
        # swaps can be judged against the deployed policy's worst case.
        # Candidates are keyed by id: the generator refuses an anchor
        # named like an enumerated one.
        generator = RoutingRuleGenerator(
            measurements,
            configurations=enumerate_configurations(
                measurements, thresholds=config.thresholds
            )
            + [anchor],
            confidence=contract.REFIT_CONFIDENCE,
            sample_fraction=contract.REFIT_SAMPLE_FRACTION,
            seed=seed,
            degradation_mode=config.degradation_mode,
            min_trials=contract.REFIT_MIN_TRIALS,
            max_trials=contract.REFIT_MAX_TRIALS,
        )
        tolerances = [contract.REFIT_BASE_TOLERANCE]
        while True:
            widened = min(config.max_tolerance, tolerances[-1] + config.tolerance_step)
            if widened <= tolerances[-1] + 1e-12:
                break
            tolerances.append(widened)
        rules = generator.generate(tolerances, _REFIT_OBJECTIVE).rules
        #: ``(tolerance, configuration)`` per rung, base rung first.
        self._ladder = tuple((t, rules[float(t)]) for t in tolerances)
        self._estimates = {e.config_id: e for e in generator.results}
        self._rung = 0
        self._rejected: set = set()
        self._last_refit = -math.inf
        self._ok_streak = 0
        self._refit_count = 0
        self._pending: Optional[_PendingJudgement] = None
        #: Adaptor actions in order, drained into the control log.
        self.events: List[AdaptorEvent] = []

    @property
    def effective_tolerance(self) -> float:
        """The current rung's tolerance (the base rung runs the anchor)."""
        return self._ladder[self._rung][0]

    # ------------------------------------------------------------------
    def on_tick(
        self, snapshot: WindowSnapshot, state: SLOState, now: float
    ) -> Optional[EnsembleConfiguration]:
        """Advance the adaptation state machine by one control tick.

        Returns the configuration to hot-swap the executor onto, or
        ``None`` when the active policy stands.
        """
        rolled_back = self._judge_pending(snapshot, state, now)
        if rolled_back is not None:
            return rolled_back

        if state is SLOState.BREACH:
            self._ok_streak = 0
            if (
                now - self._last_refit < self.config.refit_interval_s
                or self._rung == len(self._ladder) - 1  # at the ceiling
            ):
                return None
            return self._refit(snapshot, now, self._rung + 1, widening=True)

        if state is SLOState.OK:
            self._ok_streak += 1
            if (
                self._rung == 0
                or self._ok_streak < contract.REFIT_RECOVER_AFTER
                or now - self._last_refit < self.config.refit_interval_s
            ):
                return None
            self._ok_streak = 0
            if self._rung == 1:
                # Fully recovered: restore the anchor verbatim.
                self._last_refit = now
                self._rung = 0
                self._pending = None
                self._rejected.clear()
                if self.active.config_id != self.anchor.config_id:
                    self.active = self.anchor
                    self.events.append(
                        AdaptorEvent(
                            "anchor-restore",
                            f"anchor {self.anchor.config_id} restored",
                        )
                    )
                    return self.anchor
                return None
            return self._refit(snapshot, now, self._rung - 1, widening=False)

        # WARN: hold position, reset the recovery streak.
        self._ok_streak = 0
        return None

    # ------------------------------------------------------------------
    def _judge_pending(
        self, snapshot: WindowSnapshot, state: SLOState, now: float
    ) -> Optional[EnsembleConfiguration]:
        pending = self._pending
        if pending is None or now < pending.judge_at:
            return None
        self._pending = None
        p95 = snapshot.p95_latency
        if (
            state is SLOState.BREACH
            and p95.reliable
            and math.isfinite(pending.p95_before)
            and p95.value > pending.p95_before * contract.REFIT_ROLLBACK_MARGIN
        ):
            previous = pending.previous
            self.events.append(
                AdaptorEvent(
                    "rollback",
                    f"{self.active.config_id} regressed p95 "
                    f"{pending.p95_before:.3f}s -> {p95.value:.3f}s; "
                    f"reverting to {previous.config_id}",
                )
            )
            # Blacklist the regressing swap until recovery, but keep the
            # widened rung: the breach persists, so the next refit must
            # step further out, not re-try this rung.
            self._rejected.add(self.active.config_id)
            self.active = previous
            return previous
        return None

    def _refit(
        self,
        snapshot: WindowSnapshot,
        now: float,
        rung: int,
        *,
        widening: bool,
    ) -> Optional[EnsembleConfiguration]:
        self._last_refit = now
        if snapshot.n_answered < self.config.min_window_samples:
            self.events.append(
                AdaptorEvent(
                    "refit-skipped",
                    f"window holds {snapshot.n_answered} answered "
                    f"request(s); need >= {self.config.min_window_samples}",
                )
            )
            return None
        self._refit_count += 1
        self._rung = rung
        tolerance, chosen = self._ladder[rung]
        if chosen.config_id == self.active.config_id:
            self.events.append(
                AdaptorEvent(
                    "refit-nochange",
                    f"refit #{self._refit_count} at tolerance "
                    f"{tolerance:g} kept {chosen.config_id}",
                )
            )
            return None
        if widening and chosen.config_id in self._rejected:
            self.events.append(
                AdaptorEvent(
                    "refit-rejected",
                    f"refit #{self._refit_count} chose previously "
                    f"rolled-back {chosen.config_id}; widening further",
                )
            )
            return None
        if widening:
            # Under a capacity breach a swap must strictly lower the
            # worst-case node-seconds per request; every candidate was
            # estimated on the same table, so the comparison is apples
            # to apples.
            chosen_cost = self._estimates[chosen.config_id].mean_invocation_cost
            active_cost = self._estimates[self.active.config_id].mean_invocation_cost
            if chosen_cost >= active_cost:
                self.events.append(
                    AdaptorEvent(
                        "refit-noimprove",
                        f"refit #{self._refit_count} at tolerance "
                        f"{tolerance:g}: {chosen.config_id} costs "
                        f"{chosen_cost:.3g} >= active "
                        f"{self.active.config_id} {active_cost:.3g}; "
                        "widening further",
                    )
                )
                return None
        self._pending = _PendingJudgement(
            previous=self.active,
            p95_before=(
                snapshot.p95_latency.value
                if snapshot.p95_latency.reliable
                else math.nan
            ),
            judge_at=now + self.config.refit_interval_s,
        )
        self.events.append(
            AdaptorEvent(
                "swap",
                f"refit #{self._refit_count} at tolerance {tolerance:g}: "
                f"{self.active.config_id} -> {chosen.config_id}",
            )
        )
        self.active = chosen
        return chosen

    def drain_events(self) -> List[AdaptorEvent]:
        """Return and clear the accumulated adaptor events."""
        events, self.events = self.events, []
        return events
