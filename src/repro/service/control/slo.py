"""Declarative SLOs evaluated continuously into OK / WARN / BREACH.

An :class:`SLOSpec` states what one tier (or the whole request stream)
was promised — a p95 latency ceiling, an availability floor, a billed
cost ceiling — and :class:`SLOMonitor` folds each telemetry window
snapshot into a debounced :class:`SLOState`:

* raw evaluation: each declared target becomes a *pressure ratio*
  (observed / target for ceilings, target / observed for floors), so
  ``> 1`` means the target is violated and
  :data:`~repro.contract.SLO_WARN_RATIO` ``< r <= 1`` means it is close;
* **small-N guard**: a violated percentile target whose windowed
  estimate is flagged low-confidence (fewer than the guard threshold of
  samples) is capped at WARN — a p95 ranked over a handful of requests
  is quantile noise, not breach evidence;
* **hysteresis**: BREACH is entered only after ``breach_after``
  consecutive violating evaluations and left only after ``clear_after``
  consecutive clean ones, so a single noisy window neither trips nor
  clears load shedding.

Monitors are pure state machines over snapshots: no randomness, no
clock of their own — evaluating the same snapshot sequence always walks
the same states, which keeps closed-loop simulations bit-deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import checks, contract
from repro.service.control.telemetry import WindowSnapshot

__all__ = [
    "GrayDetectionSpec",
    "GrayFailureDetector",
    "SLOMonitor",
    "SLOSpec",
    "SLOState",
    "SLOStatus",
]


class SLOState(enum.Enum):
    """Debounced health of one SLO."""

    OK = "ok"
    WARN = "warn"
    BREACH = "breach"


_OK, _WARN, _BREACH = SLOState


def worst_state(states) -> SLOState:
    """The most severe of a collection of states (OK when empty)."""
    # Membership compares by identity; hashing a member is a Python call.
    return _BREACH if _BREACH in states else _WARN if _WARN in states else _OK


@dataclass(frozen=True)
class SLOSpec:
    """What one service-level objective promises.

    At least one target must be declared.  ``tier`` scopes the SLO to
    one tolerance tier's slice of the telemetry window; ``None`` covers
    the whole stream.

    Attributes:
        name: Identifier used in statuses and the control log.
        tier: Tolerance tier the SLO covers, or ``None`` for all.
        max_p95_latency_s: Ceiling on windowed p95 response time.
        min_availability: Floor on the windowed answered fraction of
            *admitted* requests.  Sheds are deliberately excluded: the
            monitor's breach state is what triggers shedding, and a
            controller whose remedy counts against its own trigger
            latches into shedding healthy traffic forever.
        max_cost_per_request: Ceiling on windowed mean billed cost.
        breach_after: Consecutive violating evaluations needed to enter
            BREACH.
        clear_after: Consecutive clean evaluations needed to leave it.
    """

    name: str
    tier: Optional[float] = None
    max_p95_latency_s: Optional[float] = None
    min_availability: Optional[float] = None
    max_cost_per_request: Optional[float] = None
    breach_after: int = contract.SLO_BREACH_AFTER
    clear_after: int = contract.SLO_CLEAR_AFTER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO needs a name")
        targets = (
            self.max_p95_latency_s,
            self.min_availability,
            self.max_cost_per_request,
        )
        if all(t is None for t in targets):
            raise ValueError(f"SLO {self.name!r} declares no target")
        if self.tier is not None:
            # A tier no tolerance has would match no request: the SLO
            # would never see one.
            checks.non_negative("tier", self.tier)
        for label, value in (
            ("max_p95_latency_s", self.max_p95_latency_s),
            ("max_cost_per_request", self.max_cost_per_request),
        ):
            if value is not None:
                checks.positive(label, value)
        if self.min_availability is not None:
            checks.positive("min_availability", self.min_availability)
            checks.probability("min_availability", self.min_availability)
        checks.integer("breach_after", self.breach_after, minimum=1)
        checks.integer("clear_after", self.clear_after, minimum=1)


@dataclass(frozen=True)
class SLOStatus:
    """One monitor's verdict on one snapshot.

    Attributes:
        name: The SLO's name.
        state: Debounced state after this evaluation.
        raw_state: Undebounced verdict of this snapshot alone.
        pressures: Pressure ratio per violated-or-watched metric
            (``> 1`` violates; metrics without data are absent).
        guarded: True when a violating percentile was capped at WARN by
            the small-N guard.
        transitioned: True when ``state`` changed on this evaluation.
    """

    name: str
    state: SLOState
    raw_state: SLOState
    pressures: Dict[str, float]
    guarded: bool
    transitioned: bool


class SLOMonitor:
    """Debounced evaluation of one :class:`SLOSpec` over snapshots."""

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self.state = SLOState.OK
        self._violating_streak = 0
        self._clean_streak = 0

    # ------------------------------------------------------------------
    def _raw(self, snapshot: WindowSnapshot):
        """Undebounced verdict: (raw_state, pressures, guarded)."""
        spec = self.spec
        view = snapshot.for_tier(spec.tier)
        pressures: Dict[str, float] = {}
        guarded = False

        # Snapshot fields are computed on first read: read only what
        # this spec judges.
        if spec.max_p95_latency_s is not None:
            p95 = view.p95_latency
            if not math.isnan(p95.value):
                pressures["p95_latency_s"] = p95.value / spec.max_p95_latency_s

        if spec.min_availability is not None:
            # Availability is judged over *admitted* requests only.  The
            # report's whole-run availability rightly counts sheds
            # against the system, but the monitor is what TRIGGERS
            # shedding — if its own remedy counted as a violation, one
            # breach would latch the controller into shedding healthy
            # traffic indefinitely.
            if spec.tier is None:
                admitted = snapshot.n - snapshot.n_shed
                answered = snapshot.n_answered
            else:
                admitted = view.n - view.n_shed
                answered = view.n - view.n_failed - view.n_shed
            if admitted:
                availability = answered / admitted
                pressures["availability"] = (
                    spec.min_availability / availability
                    if availability > 0.0
                    else float("inf")
                )

        if spec.max_cost_per_request is not None:
            mean_cost = view.mean_cost
            if not math.isnan(mean_cost):
                pressures["cost_per_request"] = mean_cost / spec.max_cost_per_request

        worst = max(pressures.values(), default=0.0)
        if worst > 1.0:
            # The small-N guard: when the *only* violated metrics are
            # percentile estimates ranked over too few samples, the
            # violation is quantile noise — cap the verdict at WARN.
            solid_violation = any(
                ratio > 1.0
                for metric, ratio in pressures.items()
                if metric != "p95_latency_s"
            )
            if (
                not solid_violation
                and pressures.get("p95_latency_s", 0.0) > 1.0
                and p95.low_confidence
            ):
                return SLOState.WARN, pressures, True
            return SLOState.BREACH, pressures, False
        # Strictly above the warn ratio: a metric sitting exactly on it
        # (e.g. perfect availability against a floor of the ratio's
        # reciprocal) is compliant, not "close to violating".
        if worst > contract.SLO_WARN_RATIO:
            return SLOState.WARN, pressures, False
        return SLOState.OK, pressures, guarded

    def evaluate(self, snapshot: WindowSnapshot) -> SLOStatus:
        """Fold one snapshot into the debounced state machine."""
        raw, pressures, guarded = self._raw(snapshot)
        previous = self.state

        if raw is SLOState.BREACH:
            self._violating_streak += 1
            self._clean_streak = 0
        elif raw is SLOState.OK:
            self._clean_streak += 1
            self._violating_streak = 0
        else:  # WARN neither arms nor clears the breach latch
            self._violating_streak = 0
            self._clean_streak = 0

        if self.state is SLOState.BREACH:
            if self._clean_streak >= self.spec.clear_after:
                self.state = SLOState.OK
        else:
            if self._violating_streak >= self.spec.breach_after:
                self.state = SLOState.BREACH
            else:
                self.state = raw if raw is not SLOState.BREACH else SLOState.WARN

        return SLOStatus(
            name=self.spec.name,
            state=self.state,
            raw_state=raw,
            pressures=pressures,
            guarded=guarded,
            transitioned=self.state is not previous,
        )


@dataclass(frozen=True)
class GrayDetectionSpec:
    """Configuration for per-node gray-failure detection.

    A gray failure is a node that is slow but alive: every health check
    passes, yet its service times have silently diverged from its pool
    peers.  Whole-stream SLOs dilute the signal — one slow node out of
    four moves the pool p95 late or not at all — so detection compares
    *per-node* service-time EWMAs (smoothing factor
    :data:`~repro.contract.GRAY_EWMA_ALPHA`) against the pool median
    instead.

    Attributes:
        ratio_threshold: A node is raw-gray when its service-time EWMA
            is at least this multiple of its pool's median EWMA.  Must
            exceed 1 (a node cannot be gray relative to itself).
        min_samples: Completions a node must have served before its
            EWMA participates — one slow batch is noise, not divergence.
        detect_after: Consecutive gray evaluations (control ticks)
            before a node is flagged.
        clear_after: Consecutive clean evaluations before a flagged
            node is released.
        state_on_detect: The :class:`SLOState` the detector contributes
            to the plane aggregate while any node is flagged — WARN
            surfaces the divergence, BREACH additionally arms admission
            control.  OK is rejected (detection would be inert).
    """

    ratio_threshold: float = contract.GRAY_RATIO_THRESHOLD
    min_samples: int = contract.GRAY_MIN_SAMPLES
    detect_after: int = contract.GRAY_DETECT_AFTER
    clear_after: int = contract.GRAY_CLEAR_AFTER
    state_on_detect: SLOState = SLOState.WARN

    def __post_init__(self) -> None:
        checks.ordered("1", 1.0, "ratio_threshold", self.ratio_threshold)
        checks.integer("min_samples", self.min_samples, minimum=1)
        checks.integer("detect_after", self.detect_after, minimum=1)
        checks.integer("clear_after", self.clear_after, minimum=1)
        if self.state_on_detect is SLOState.OK:
            raise ValueError("state_on_detect must be WARN or BREACH")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class GrayFailureDetector:
    """Flags pool nodes whose service times silently diverge from peers.

    Fed one observation per node completion via :meth:`observe` and
    evaluated once per control tick via :meth:`evaluate`, which applies
    the same hysteresis discipline as :class:`SLOMonitor`: a node must
    look gray for ``detect_after`` consecutive ticks to be flagged and
    clean for ``clear_after`` to be released.  Evaluation is a pure
    function of the observation sequence — no randomness, no wall
    clock — so closed-loop runs stay bit-deterministic.

    A pool is only judged when at least two of its nodes have served
    ``min_samples`` completions: with a single reporting node there is
    no peer baseline, and any existing flags for that pool are released.
    """

    def __init__(self, spec: GrayDetectionSpec) -> None:
        self.spec = spec
        self._ewma: Dict[Tuple[str, str], float] = {}
        self._count: Dict[Tuple[str, str], int] = {}
        self._gray_streak: Dict[Tuple[str, str], int] = {}
        self._clean_streak: Dict[Tuple[str, str], int] = {}
        self._flagged: Set[Tuple[str, str]] = set()

    def observe(self, node_id: str, version: str, service_time_s: float) -> None:
        """Fold one completion's service time into the node's EWMA."""
        key = (version, node_id)
        previous = self._ewma.get(key)
        if previous is None:
            self._ewma[key] = service_time_s
        else:
            alpha = contract.GRAY_EWMA_ALPHA
            self._ewma[key] = alpha * service_time_s + (1.0 - alpha) * previous
        self._count[key] = self._count.get(key, 0) + 1

    @property
    def state(self) -> SLOState:
        """The detector's contribution to the plane aggregate."""
        return self.spec.state_on_detect if self._flagged else SLOState.OK

    def evaluate(self) -> List[Tuple[str, str]]:
        """Judge every comparable pool; return ``(kind, detail)`` transitions.

        ``kind`` is ``"gray-detected"`` or ``"gray-cleared"``.  Details
        name the version and divergence ratio but deliberately not the
        node: node identifiers embed a process-global counter, and the
        control log participates in the deterministic report digest.
        """
        spec = self.spec
        transitions: List[Tuple[str, str]] = []
        pools: Dict[str, List[Tuple[str, float]]] = {}
        for (version, node_id), count in self._count.items():
            if count >= spec.min_samples:
                pools.setdefault(version, []).append(
                    (node_id, self._ewma[(version, node_id)])
                )

        judged: Set[Tuple[str, str]] = set()
        for version in sorted(pools):
            nodes = pools[version]
            if len(nodes) < 2:
                continue
            median = _median([ewma for _, ewma in nodes])
            if median <= 0.0:
                continue
            for node_id, ewma in sorted(nodes):
                key = (version, node_id)
                judged.add(key)
                ratio = ewma / median
                if ratio >= spec.ratio_threshold:
                    self._gray_streak[key] = self._gray_streak.get(key, 0) + 1
                    self._clean_streak[key] = 0
                    if (
                        key not in self._flagged
                        and self._gray_streak[key] >= spec.detect_after
                    ):
                        self._flagged.add(key)
                        transitions.append(
                            (
                                "gray-detected",
                                f"{version}: node service-time ewma "
                                f"{ratio:.2f}x pool median",
                            )
                        )
                else:
                    self._clean_streak[key] = self._clean_streak.get(key, 0) + 1
                    self._gray_streak[key] = 0
                    if (
                        key in self._flagged
                        and self._clean_streak[key] >= spec.clear_after
                    ):
                        self._flagged.discard(key)
                        transitions.append(
                            (
                                "gray-cleared",
                                f"{version}: node service-time ewma back to "
                                f"{ratio:.2f}x pool median",
                            )
                        )

        # A flagged node whose pool lost its peer baseline (everyone
        # else died or was drained) can no longer be judged; release it
        # rather than latch the plane state on stale evidence.
        for key in sorted(self._flagged - judged):
            self._flagged.discard(key)
            self._gray_streak[key] = 0
            self._clean_streak[key] = 0
            transitions.append(
                (
                    "gray-cleared",
                    f"{key[0]}: pool no longer comparable; flag released",
                )
            )
        return transitions
