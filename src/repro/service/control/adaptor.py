"""Online tier-policy adaptation: re-fit the rule generator on live telemetry.

The offline rule generator fits tier policies once, against curated
training traffic; a serving system under a flash crowd or a half-dead
accurate pool is not the system that traffic was measured on.
:class:`PolicyAdaptor` closes the loop the way adaptive-anchoring
iterations do — feedback on the observed iterate instead of a fixed
schedule:

* the deployed configuration is the **anchor**;
* while the SLOs are in BREACH the adaptor *widens* its effective
  tolerance one step at a time and re-runs the
  :class:`~repro.core.rule_generator.RoutingRuleGenerator` (the PR 2
  vectorized outcome-matrix engine) over the measurement rows observed
  in the trailing telemetry window, hot-swapping the executor onto the
  re-fit winner — under load that winner is a cheaper, faster ensemble
  (a lower escalation threshold, or the fast version alone), which is
  exactly what frees the saturated pool;
* once the SLOs have been OK long enough it tightens back step by step,
  and at the base tolerance it restores the anchor verbatim — a healthy
  system converges to exactly its offline policy.

Guardrails:

* **minimum window size** — no re-fit on fewer than
  ``min_window_samples`` observed requests (a rule table fit on a
  handful of rows is noise);
* **no cost-increasing swaps under breach** — the anchor is
  bootstrapped alongside the candidates every re-fit, and while
  breaching a swap must strictly lower the worst-case cost
  (node-seconds per request) of the active policy; without this, a
  narrow first widening step can "re-fit" onto the most accurate single
  version — the one configuration guaranteed to deepen a capacity
  breach;
* **rollback on SLO regression** — every swap records the pre-swap p95;
  if, one re-fit interval later, the system is still in BREACH and the
  (confidently estimated) p95 got materially worse, the swap is
  reverted and the configuration blacklisted until recovery.  The
  widened tolerance is *kept*: under a persisting breach the adaptation
  pressure only ratchets up (the adaptive-anchoring move), so the next
  re-fit tries a wider tolerance instead of re-trying the bad swap.

The adaptor draws no randomness of its own: re-fit seeds derive
deterministically from the plane seed and the re-fit ordinal, so
closed-loop runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import math

from repro import contract
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

#: The objective every refit optimises: COST, deliberately *not* the
#: latency objective even for latency breaches.  Measured response times
#: are contention-free, so under saturation the latency objective
#: favours concurrent ensembles that overlap legs, and double the
#: node-seconds per request: exactly the wrong direction when the breach
#: is capacity.  Worst-case cost is node-seconds per request, i.e.
#: inverse capacity; minimising it is what drains the queues.
_REFIT_OBJECTIVE = Objective.COST


@dataclass(frozen=True)
class AdaptorConfig:
    """How the online adaptor widens and re-fits.

    The refit's bootstrap settings, the recovery debounce, the rollback
    margin and the base tolerance are :mod:`repro.contract` constants.

    Attributes:
        refit_interval_s: Minimum virtual time between re-fits (also the
            grace period before a swap is judged for rollback).
        min_window_samples: Re-fit guardrail — the trailing window must
            hold at least this many answered requests.
        tolerance_step: Widening step, in the tier-tolerance units of
            ``degradation_mode`` (relative degradation is a *fraction of
            the baseline error*, so useful steps depend on the service's
            error scale; absolute mode steps in error units).
        max_tolerance: Ceiling on the widened effective tolerance.
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
        # Every bound is written so NaN fails it.
        if not self.refit_interval_s > 0.0:
            raise ValueError("refit_interval_s must be positive")
        if self.min_window_samples < 2:
            raise ValueError("min_window_samples must be at least 2")
        if not self.tolerance_step > 0.0:
            raise ValueError("tolerance_step must be positive")
        if not self.max_tolerance >= contract.REFIT_BASE_TOLERANCE:
            raise ValueError("max_tolerance must be >= the base tolerance")
        if self.degradation_mode not in ("relative", "absolute"):
            raise ValueError("degradation_mode must be relative or absolute")
        # The refit's design space would refuse these mid-run; refuse
        # them here.
        if not all(0.0 <= threshold <= 1.0 for threshold in self.thresholds):
            raise ValueError(f"thresholds must be in [0, 1], got {self.thresholds}")


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
    """Widen-refit-tighten state machine over telemetry snapshots.

    Args:
        config: The adaptation schedule and guardrails.
        measurements: The full measurement table; re-fits run on the
            row subset named by the trailing window's payloads.
        anchor: The offline-fit configuration the system deploys with
            (and converges back to).
        seed: Base seed; each re-fit derives its own deterministic
            generator seed from it.
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
        self.effective_tolerance = contract.REFIT_BASE_TOLERANCE
        self._seed = int(seed)
        self._row_of = {rid: i for i, rid in enumerate(measurements.request_ids)}
        # The anchor competes in (and is estimated by) every re-fit, so
        # swaps can be judged against the deployed policy's worst case.
        self._candidates = enumerate_configurations(
            measurements, thresholds=config.thresholds
        ) + [anchor]
        self._rejected: set = set()
        self._last_refit = -math.inf
        self._ok_streak = 0
        self._refit_count = 0
        self._pending: Optional[_PendingJudgement] = None
        #: Adaptor actions in order, drained into the control log.
        self.events: List[AdaptorEvent] = []

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
            if now - self._last_refit < self.config.refit_interval_s:
                return None
            widened = min(
                self.config.max_tolerance,
                self.effective_tolerance + self.config.tolerance_step,
            )
            if widened <= self.effective_tolerance + 1e-12:
                return None  # already at the ceiling
            return self._refit(snapshot, now, widened, widening=True)

        if state is SLOState.OK:
            self._ok_streak += 1
            if (
                self.effective_tolerance <= contract.REFIT_BASE_TOLERANCE + 1e-12
                or self._ok_streak < contract.REFIT_RECOVER_AFTER
                or now - self._last_refit < self.config.refit_interval_s
            ):
                return None
            self._ok_streak = 0
            tightened = max(
                contract.REFIT_BASE_TOLERANCE,
                self.effective_tolerance - self.config.tolerance_step,
            )
            if tightened <= contract.REFIT_BASE_TOLERANCE + 1e-12:
                # Fully recovered: restore the anchor verbatim.
                self._last_refit = now
                self.effective_tolerance = contract.REFIT_BASE_TOLERANCE
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
            return self._refit(snapshot, now, tightened, widening=False)

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
            # widened tolerance: the breach persists, so the next re-fit
            # must explore further out, not re-try this rung.
            self._rejected.add(self.active.config_id)
            self.active = previous
            return previous
        return None

    def _refit(
        self,
        snapshot: WindowSnapshot,
        now: float,
        tolerance: float,
        *,
        widening: bool,
    ) -> Optional[EnsembleConfiguration]:
        self._last_refit = now
        rows = sorted(
            {
                self._row_of[payload]
                for payload in snapshot.payloads
                if payload in self._row_of
            }
        )
        if len(snapshot.payloads) < self.config.min_window_samples or len(rows) < 2:
            self.events.append(
                AdaptorEvent(
                    "refit-skipped",
                    f"window holds {len(snapshot.payloads)} answered "
                    f"request(s) over {len(rows)} measured row(s); need "
                    f">= {self.config.min_window_samples}",
                )
            )
            return None
        self._refit_count += 1
        window = self.measurements.subset(rows)
        generator = RoutingRuleGenerator(
            window,
            configurations=self._candidates,
            confidence=contract.REFIT_CONFIDENCE,
            sample_fraction=contract.REFIT_SAMPLE_FRACTION,
            seed=(self._seed * 1_000_003 + self._refit_count) % (2**32),
            degradation_mode=self.config.degradation_mode,
            min_trials=contract.REFIT_MIN_TRIALS,
            max_trials=contract.REFIT_MAX_TRIALS,
        )
        table = generator.generate([tolerance], _REFIT_OBJECTIVE)
        chosen = table.rules[float(tolerance)]
        self.effective_tolerance = tolerance
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
            # worst-case node-seconds per request; the re-fit estimated
            # the active configuration on the same window, so the
            # comparison is apples to apples.
            chosen_cost = generator.estimate_for(
                chosen.config_id
            ).mean_invocation_cost
            active_cost = generator.estimate_for(
                self.active.config_id
            ).mean_invocation_cost
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
                f"refit #{self._refit_count} on {len(rows)} rows at "
                f"tolerance {tolerance:g}: {self.active.config_id} -> "
                f"{chosen.config_id}",
            )
        )
        self.active = chosen
        return chosen

    def drain_events(self) -> List[AdaptorEvent]:
        """Return and clear the accumulated adaptor events."""
        events, self.events = self.events, []
        return events
