"""Declarative fault injection for the serving simulator.

The PR 1 engine only exercised healthy clusters under clean arrival
processes; the paper's tiered-serving argument, however, rests on behavior
near saturation — which in production is where machines die, straggle and
flake.  This module provides the *vocabulary* of degraded-mode events the
engine can inject on its virtual clock:

* :class:`NodeCrash` — a node dies at a timestamp: its queued requests are
  requeued onto surviving nodes, its running batch is aborted (the work
  done until the crash stays on the IaaS bill, but produces no results;
  the affected attempts are retried under the :class:`RetryPolicy`), and
  the node may be replaced by a fresh one at a recovery timestamp.
* :class:`NodeSlowdown` — a straggler: one node's effective speed factor
  is degraded for a window, so everything it serves takes longer.
* :class:`TransientFaults` — a flaky window: job completions on affected
  versions fail with a fixed probability (drawn from a dedicated, seeded
  fault RNG so fault-free runs consume no extra randomness), triggering
  retries or terminal request failure.

The chaos vocabulary extends that with the failure shapes a serving stack
must degrade through *gracefully* rather than merely survive:

* :class:`GrayFailure` — a slow-but-alive node: it keeps passing health
  checks (it is never evicted, never stops serving) while its latency
  inflates and its answers silently lose confidence.  The nastiest
  production failure mode, because nothing crashes.
* :class:`CascadePolicy` — crash propagation: a node death in an affected
  pool opens a cascade window during which peer completions fail with a
  load-conditional probability (the more backed up the survivors, the
  likelier the overload spreads).
* :class:`RetryStorm` — a *correlated* transient window: precomputed
  bad/good time buckets concentrate failures into bursts, so aggressive
  client retries pile onto already-failing capacity.  Pair it with the
  :class:`RetryPolicy` budgets below to both reproduce and contain the
  storm.
* :class:`ColdStartWave` — every node that joins a pool after the run
  starts (autoscaler scale-up, crash replacement) serves at degraded
  speed and confidence for a warmup window before reaching steady state.
* :class:`ThunderingHerd` — an outage window on the *arrival* side:
  requests that would have arrived inside it are held and released as one
  synchronized surge when the window ends (see
  :class:`~repro.service.simulation.arrivals.ThunderingHerdArrivals`).
* :class:`RegionPartition` — a severed inter-region failover link: for a
  window, traffic in one region cannot spill over to a peer (or to any
  peer).  Unlike the rest of the vocabulary this is a *topology* fault:
  it is consumed by the region router's failover plan
  (:mod:`repro.service.regions`), never by a single engine shard, so it
  belongs in ``MultiRegionSpec.partitions`` rather than a scenario's
  fault schedule.

All fault types are frozen dataclasses so a
:class:`~repro.service.simulation.scenarios.ScenarioSpec` composed of them
is hashable, comparable and serialisable.  Applying the same schedule to
the same seeded simulation always reproduces the same
:class:`~repro.service.simulation.report.LoadTestReport`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "CascadePolicy",
    "ColdStartWave",
    "FaultEvent",
    "FaultLogEntry",
    "GrayFailure",
    "NodeCrash",
    "NodeSlowdown",
    "RegionPartition",
    "RetryPolicy",
    "RetryStorm",
    "ThunderingHerd",
    "TransientFaults",
    "affected_versions",
]


def _require_finite(label: str, value: float) -> None:
    """Reject NaN/inf timestamps and rates with a clear error."""
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


def _require_integer(label: str, value) -> None:
    """Reject a count or an index that is not an integer (numpy ints pass)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")


def _require_node_index(value) -> None:
    _require_integer("node_index", value)
    if value < 0:
        raise ValueError("node_index must be non-negative")


def _require_timestamp(label: str, value: float) -> None:
    _require_finite(label, value)
    if value < 0.0:
        raise ValueError(f"{label} must be non-negative")


def _require_window(start_label: str, start: float, end_label: str, end: float) -> None:
    _require_timestamp(start_label, start)
    _require_finite(end_label, end)
    if end <= start:
        raise ValueError(f"{end_label} must lie after {start_label}")


def _require_rate(label: str, value: float) -> None:
    _require_finite(label, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} must be in [0, 1]")


class _NodeFault:
    """What the faults that strike one node by pool index share."""

    #: The fault's name in a "skipped" log entry.
    _WHAT = ""

    def victim(self, pool, now: float):
        """``(node, None)`` for the node at ``node_index`` of ``pool``
        (the pool as it is at onset), or ``(None, entry)`` with the
        "skipped" log entry when the index is past the pool's end."""
        if self.node_index < len(pool):
            return pool[self.node_index], None
        return None, FaultLogEntry(
            now,
            "skipped",
            self.version,
            None,
            f"{self._WHAT} index {self.node_index} out of range "
            f"(pool size {len(pool)})",
        )


@dataclass(frozen=True)
class NodeCrash(_NodeFault):
    """One node of a version's pool dies at a virtual timestamp.

    Attributes:
        at_s: Virtual time of the crash.
        version: Pool the node belongs to.
        node_index: Index of the victim within the pool *at crash time*
            (pools mutate under autoscaling); an index beyond the current
            pool is recorded as a no-op in the fault log.
        recover_at_s: When given, a fresh replacement node (built to the
            pool's specification) joins the pool at this time.
    """

    at_s: float
    version: str
    node_index: int = 0
    recover_at_s: Optional[float] = None

    _WHAT = "crash"

    def __post_init__(self) -> None:
        _require_timestamp("at_s", self.at_s)
        _require_node_index(self.node_index)
        if self.recover_at_s is not None:
            _require_finite("recover_at_s", self.recover_at_s)
            if self.recover_at_s <= self.at_s:
                raise ValueError("recover_at_s must lie after at_s")

    def crash_entry(
        self, now: float, node_id: str, n_aborted: int, n_queued: int
    ) -> "FaultLogEntry":
        """The log entry of the crash itself."""
        return FaultLogEntry(
            now,
            "crash",
            self.version,
            node_id,
            f"pool index {self.node_index}: {n_aborted} running "
            f"attempt(s) aborted, {n_queued} queued migrated",
        )

    def recover_entry(self, now: float, node_id: str) -> "FaultLogEntry":
        """The log entry of the replacement node joining the pool."""
        return FaultLogEntry(
            now,
            "recover",
            self.version,
            node_id,
            "replacement node joined the pool",
        )


@dataclass(frozen=True)
class NodeSlowdown(_NodeFault):
    """A straggler: one node's speed is degraded for a window.

    Attributes:
        at_s: Virtual time the slowdown begins.
        version: Pool the node belongs to.
        node_index: Index of the straggler within the pool at onset time.
        speed_factor: Multiplier on the node's effective speed in
            ``(0, inf)``; ``0.25`` makes everything it serves 4x slower.
            The degradation applies to batches *started* while it is in
            effect (a batch already running keeps its finish time).
        until_s: When given, the node's speed is restored at this time.
    """

    at_s: float
    version: str
    node_index: int = 0
    speed_factor: float = 0.25
    until_s: Optional[float] = None

    _WHAT = "slowdown"

    def __post_init__(self) -> None:
        _require_timestamp("at_s", self.at_s)
        _require_node_index(self.node_index)
        _require_finite("speed_factor", self.speed_factor)
        if self.speed_factor <= 0.0:
            raise ValueError("speed_factor must be positive")
        if self.until_s is not None:
            _require_finite("until_s", self.until_s)
            if self.until_s <= self.at_s:
                raise ValueError("until_s must lie after at_s")

    def onset_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of the node turning slow."""
        return FaultLogEntry(
            now,
            "slowdown",
            version,
            node_id,
            f"pool index {self.node_index}: speed x{self.speed_factor:g}",
        )

    def restore_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of the node's speed coming back."""
        return FaultLogEntry(now, "restore", version, node_id, "speed restored to x1")


@dataclass(frozen=True)
class TransientFaults:
    """A flaky window: completions fail with a fixed probability.

    Attributes:
        start_s: Virtual time the window opens.
        end_s: Virtual time the window closes.
        failure_probability: Probability in ``[0, 1]`` that a job finishing
            inside the window (on an affected version) fails instead of
            returning its result.  The node time is still spent — failed
            work burns capacity, exactly as a timeout or a 5xx does.
        versions: Affected version names; ``None`` affects every version.
    """

    start_s: float
    end_s: float
    failure_probability: float
    versions: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _require_window("start_s", self.start_s, "end_s", self.end_s)
        _require_rate("failure_probability", self.failure_probability)

    def affects(self, version: str, time_s: float) -> bool:
        """Whether a completion of ``version`` at ``time_s`` is in scope."""
        if not self.start_s <= time_s < self.end_s:
            return False
        return self.versions is None or version in self.versions


@dataclass(frozen=True)
class GrayFailure(_NodeFault):
    """A slow-but-alive node: passes health checks, serves garbage slowly.

    The node is never evicted and never refuses work — the load balancer
    keeps routing to it, which is exactly what makes gray failures the
    hardest production fault to catch.  While the failure is active the
    node's effective speed is multiplied by ``speed_factor`` (latency
    inflation) and every answer it produces has its confidence multiplied
    by ``confidence_factor`` (silent quality loss — under a tiered policy
    this shows up as extra escalations, not as errors).

    Attributes:
        at_s: Virtual time the gray failure begins.
        version: Pool the node belongs to.
        node_index: Index of the victim within the pool at onset time; an
            index beyond the current pool is logged as a no-op.
        speed_factor: Multiplier on the node's effective speed in
            ``(0, 1]`` — applies to batches started while gray.
        confidence_factor: Multiplier in ``[0, 1]`` applied to the
            confidence of every result the node produces while gray.
        until_s: When given, the node recovers (speed and quality) at
            this time.
    """

    at_s: float
    version: str
    node_index: int = 0
    speed_factor: float = 0.5
    confidence_factor: float = 0.8
    until_s: Optional[float] = None

    _WHAT = "gray"

    def __post_init__(self) -> None:
        _require_timestamp("at_s", self.at_s)
        _require_node_index(self.node_index)
        _require_finite("speed_factor", self.speed_factor)
        if not 0.0 < self.speed_factor <= 1.0:
            raise ValueError("speed_factor must be in (0, 1]")
        _require_rate("confidence_factor", self.confidence_factor)
        if self.until_s is not None:
            _require_finite("until_s", self.until_s)
            if self.until_s <= self.at_s:
                raise ValueError("until_s must lie after at_s")

    def onset_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of the node turning gray."""
        return FaultLogEntry(
            now,
            "gray",
            version,
            node_id,
            f"pool index {self.node_index}: speed "
            f"x{self.speed_factor:g}, confidence "
            f"x{self.confidence_factor:g}, still passing health checks",
        )

    def restore_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of the node's speed and quality coming back."""
        return FaultLogEntry(
            now,
            "gray-restore",
            version,
            node_id,
            "speed and confidence restored to x1",
        )


@dataclass(frozen=True)
class CascadePolicy:
    """Crash propagation: a node death stresses its pool's survivors.

    A run-long policy, not a timed event: whenever a node in an affected
    pool crashes, a cascade window ``[crash, crash + window_s)`` opens on
    that pool.  Completions finishing inside the window fail with
    probability ``min(max_probability, base_probability + load_factor *
    load)`` where ``load`` is the mean queue depth per surviving node —
    the more backed up the pool, the likelier the overload propagates.
    Draws come from the engine's dedicated fault RNG, so cascade-free
    runs consume no extra randomness.

    Attributes:
        version: Pool the policy watches; ``None`` watches every pool.
        window_s: Length of the cascade window a crash opens.
        base_probability: Failure probability floor inside a window.
        load_factor: Additional failure probability per unit of mean
            queue depth per surviving node.
        max_probability: Failure probability ceiling.
    """

    version: Optional[str] = None
    window_s: float = 5.0
    base_probability: float = 0.2
    load_factor: float = 0.05
    max_probability: float = 0.9

    def __post_init__(self) -> None:
        _require_finite("window_s", self.window_s)
        if self.window_s <= 0.0:
            raise ValueError("window_s must be positive")
        _require_rate("base_probability", self.base_probability)
        _require_rate("max_probability", self.max_probability)
        if self.base_probability > self.max_probability:
            raise ValueError(
                "base_probability must not exceed max_probability"
            )
        _require_finite("load_factor", self.load_factor)
        if self.load_factor < 0.0:
            raise ValueError("load_factor must be non-negative")

    def probability(self, load: float) -> float:
        """Failure probability at ``load`` mean queued jobs per survivor."""
        return min(
            self.max_probability,
            self.base_probability + self.load_factor * max(0.0, load),
        )


@dataclass(frozen=True)
class RetryStorm:
    """A correlated transient window: failures arrive in bursts.

    Where :class:`TransientFaults` fails completions independently,
    a retry storm divides its window into buckets of ``bucket_s`` and
    marks a ``bad_fraction`` of them *bad* (from an RNG derived from the
    run seed, precomputed at engine construction so completion
    interleaving cannot change which buckets are bad).  Completions in a
    bad bucket fail with ``failure_probability``; completions in good
    buckets always succeed.  The result is the storm shape: bursts of
    correlated failures whose retries land together on the next bucket —
    amplifying load exactly when capacity is already failing.

    Attributes:
        start_s: Virtual time the storm window opens.
        end_s: Virtual time the storm window closes.
        failure_probability: Failure probability inside a *bad* bucket.
        bucket_s: Width of the correlation buckets.
        bad_fraction: Fraction of buckets (in probability) marked bad.
        versions: Affected version names; ``None`` affects every version.
    """

    start_s: float
    end_s: float
    failure_probability: float = 0.9
    bucket_s: float = 0.5
    bad_fraction: float = 0.5
    versions: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _require_window("start_s", self.start_s, "end_s", self.end_s)
        _require_rate("failure_probability", self.failure_probability)
        _require_rate("bad_fraction", self.bad_fraction)
        _require_finite("bucket_s", self.bucket_s)
        if self.bucket_s <= 0.0:
            raise ValueError("bucket_s must be positive")

    @property
    def n_buckets(self) -> int:
        """Number of correlation buckets covering the window."""
        return int(math.ceil((self.end_s - self.start_s) / self.bucket_s))

    def bucket_of(self, time_s: float) -> Optional[int]:
        """Bucket index containing ``time_s``, or ``None`` outside."""
        if not self.start_s <= time_s < self.end_s:
            return None
        return min(
            self.n_buckets - 1,
            int((time_s - self.start_s) / self.bucket_s),
        )

    def affects(self, version: str, time_s: float) -> bool:
        """Whether a completion of ``version`` at ``time_s`` is in scope."""
        if not self.start_s <= time_s < self.end_s:
            return False
        return self.versions is None or version in self.versions


@dataclass(frozen=True)
class ColdStartWave:
    """Freshly provisioned nodes serve degraded for a warmup window.

    A run-long policy: every node that joins an affected pool *after the
    run starts* — an autoscaler scale-up, a crash replacement — serves at
    ``speed_factor`` of its steady-state speed, with answer confidence
    multiplied by ``confidence_factor``, for ``warmup_s`` after joining.
    Capacity that arrives cold is exactly when thundering herds hurt
    most; this event makes that visible.

    Attributes:
        warmup_s: Warmup window length after a node joins its pool.
        speed_factor: Speed multiplier in ``(0, 1]`` while warming.
        confidence_factor: Confidence multiplier in ``[0, 1]`` applied to
            results produced while warming (``1.0`` degrades speed only).
        version: Pool the wave covers; ``None`` covers every pool.
    """

    warmup_s: float
    speed_factor: float = 0.5
    confidence_factor: float = 1.0
    version: Optional[str] = None

    def __post_init__(self) -> None:
        _require_finite("warmup_s", self.warmup_s)
        if self.warmup_s <= 0.0:
            raise ValueError("warmup_s must be positive")
        _require_finite("speed_factor", self.speed_factor)
        if not 0.0 < self.speed_factor <= 1.0:
            raise ValueError("speed_factor must be in (0, 1]")
        _require_rate("confidence_factor", self.confidence_factor)

    def covers(self, version: str) -> bool:
        """Whether nodes joining ``version``'s pool warm up under this wave."""
        return self.version is None or self.version == version

    def onset_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of a joining node starting its warmup."""
        return FaultLogEntry(
            now,
            "cold-start",
            version,
            node_id,
            f"warming for {self.warmup_s:g}s: speed "
            f"x{self.speed_factor:g}, confidence "
            f"x{self.confidence_factor:g}",
        )

    def restore_entry(self, now: float, version: str, node_id: str) -> "FaultLogEntry":
        """The log entry of a joining node finishing its warmup."""
        return FaultLogEntry(
            now,
            "warmed",
            version,
            node_id,
            "warmup complete: speed and confidence restored to x1",
        )


@dataclass(frozen=True)
class ThunderingHerd:
    """An arrival-side outage: held traffic returns as one synchronized surge.

    Requests that would have arrived inside ``[start_s, end_s)`` (clients
    blocked behind an outage, a cache flush, a mobile push) are *held* and
    released together at ``end_s``, compressed into a burst of width
    ``spread_s`` that preserves their original order.  The engine applies
    the transform to generated workloads via
    :class:`~repro.service.simulation.arrivals.ThunderingHerdArrivals`;
    no RNG draws are added, so the same seed yields the same base
    arrivals with and without the herd.

    Attributes:
        start_s: Virtual time the hold window opens.
        end_s: Virtual time held traffic is released.
        spread_s: Width of the release burst (``0`` releases every held
            arrival at exactly ``end_s``).
    """

    start_s: float
    end_s: float
    spread_s: float = 0.05

    def __post_init__(self) -> None:
        _require_window("start_s", self.start_s, "end_s", self.end_s)
        _require_finite("spread_s", self.spread_s)
        if self.spread_s < 0.0:
            raise ValueError("spread_s must be non-negative")


@dataclass(frozen=True)
class RegionPartition:
    """A severed inter-region failover link for a window.

    While the partition is open, the region router's failover plan may
    not spill ``region``'s traffic to ``peer`` (or to *any* peer when
    ``peer`` is ``None``); with ``bidirectional`` (the default) the
    reverse link is severed too.  Requests that needed the link stay in
    their home region and take whatever fate its pools offer — the
    boundary-event stream records the denial.

    This is a topology fault consumed by
    :class:`~repro.service.regions.RegionRouter`, not by an engine
    shard: placing one in a :class:`ScenarioSpec` fault schedule is an
    error (see :func:`affected_versions`).

    Attributes:
        region: Region whose outbound failover link is severed.
        peer: The peer region cut off, or ``None`` for all peers.
        start_s: Virtual time the partition opens.
        end_s: Virtual time the link heals.
        bidirectional: Also sever the reverse (``peer`` -> ``region``)
            link.  With ``peer=None`` this makes the region fully
            isolated: no outbound spillover from it *and* no inbound
            spillover onto it; ``bidirectional=False`` with ``peer=None``
            only blocks its outbound links.
    """

    region: str
    peer: Optional[str] = None
    start_s: float = 0.0
    end_s: float = float("inf")
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if not self.region:
            raise ValueError("a region partition needs a region name")
        if self.peer == self.region:
            raise ValueError("a region cannot be partitioned from itself")
        _require_timestamp("start_s", self.start_s)
        if not self.end_s > self.start_s:  # NaN fails too
            raise ValueError("end_s must lie after start_s")

    def severs(self, src: str, dst: str, at_s: float) -> bool:
        """Whether the ``src -> dst`` link is down at virtual time ``at_s``."""
        if not self.start_s <= at_s < self.end_s:
            return False
        if self.region == src and self.peer in (None, dst):
            return True
        return bool(
            self.bidirectional
            and self.region == dst
            and self.peer in (None, src)
        )


#: Any schedulable fault.
FaultEvent = Union[
    NodeCrash,
    NodeSlowdown,
    TransientFaults,
    GrayFailure,
    CascadePolicy,
    RetryStorm,
    ColdStartWave,
    ThunderingHerd,
]


def affected_versions(fault: FaultEvent) -> Tuple[str, ...]:
    """Version names a fault event targets (empty = none / every pool).

    The engine validates these against the deployed versions at
    construction, so a typoed pool name fails fast instead of silently
    simulating a healthy run.
    """
    if isinstance(fault, (TransientFaults, RetryStorm)):
        return fault.versions or ()
    if isinstance(fault, (CascadePolicy, ColdStartWave)):
        return (fault.version,) if fault.version is not None else ()
    if isinstance(fault, ThunderingHerd):
        return ()
    if isinstance(fault, RegionPartition):
        raise ValueError(
            "RegionPartition severs inter-region links; it belongs in "
            "MultiRegionSpec.partitions, not in an engine fault schedule"
        )
    return (fault.version,)


@dataclass(frozen=True)
class RetryPolicy:
    """How the load balancer re-drives failed job attempts.

    A job attempt fails when its node crashes mid-batch or a transient
    fault window eats its completion.  While the request has attempts left
    for that version, a new attempt is enqueued (onto a *surviving* node —
    dead nodes leave the pool) after a backoff delay; once attempts are
    exhausted, the request fails terminally unless it is already
    answerable without the failed leg (a confident fast result makes an
    accurate-leg failure harmless under ``conc``/``et``).

    The budget fields bound retry *amplification*: under a retry storm an
    unbounded policy multiplies offered load exactly when capacity is
    already failing.  Every budget defaults to unbounded, so existing
    scenarios (and their golden digests) are untouched; when a budget
    denies a retry the request proceeds as if its attempts were exhausted
    and the denial is recorded (``RequestRecord.retry_denied``, the
    report's ``n_retry_denied``, and the invariant ledger).

    Attributes:
        max_attempts: Total tries per ``(request, version)`` job, including
            the first; ``1`` disables retries.
        backoff_s: Delay before the first retry.
        backoff_factor: Multiplier applied to the delay per further retry
            (``backoff_s * backoff_factor ** (attempt - 1)``).
        retry_budget: Per-request cap on retries scheduled across all of
            the request's legs; ``None`` is unbounded.
        max_inflight_retries: Global cap on retries concurrently waiting
            out their backoff; at the cap a would-be retry is denied.
            ``None`` is unbounded.
        max_total_retries: Global run-wide retry budget; once spent, no
            further retry is ever scheduled.  ``None`` is unbounded.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    retry_budget: Optional[int] = None
    max_inflight_retries: Optional[int] = None
    max_total_retries: Optional[int] = None

    def __post_init__(self) -> None:
        _require_integer("max_attempts", self.max_attempts)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        _require_finite("backoff_s", self.backoff_s)
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be non-negative")
        _require_finite("backoff_factor", self.backoff_factor)
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        for label, value in (
            ("retry_budget", self.retry_budget),
            ("max_inflight_retries", self.max_inflight_retries),
            ("max_total_retries", self.max_total_retries),
        ):
            if value is not None:
                _require_integer(label, value)
                if value < 0:
                    raise ValueError(f"{label} must be non-negative")

    def delay_before_retry(self, failed_attempt: int) -> float:
        """Backoff before re-driving after ``failed_attempt`` (1-based)."""
        if failed_attempt < 1:
            raise ValueError("failed_attempt is 1-based")
        return self.backoff_s * self.backoff_factor ** (failed_attempt - 1)


@dataclass(frozen=True)
class FaultLogEntry:
    """One fault the engine actually applied (or skipped), for the report.

    Attributes:
        time_s: Virtual time the entry was logged.
        kind: ``"crash"``, ``"recover"``, ``"slowdown"``, ``"restore"``,
            ``"transient-window"``, ``"gray"``, ``"gray-restore"``,
            ``"cascade"``, ``"storm-window"``, ``"cold-start"``,
            ``"warmed"``, ``"herd"`` or ``"skipped"``.
        version: Affected pool.
        node_id: Affected node, when the fault targets one.
        detail: Free-form human-readable context.
    """

    time_s: float
    kind: str
    version: str
    node_id: Optional[str] = None
    detail: str = ""

