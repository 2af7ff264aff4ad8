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
  synchronized surge when the window ends.
* :class:`RegionPartition` — a severed inter-region failover link: for a
  window, traffic in one region cannot spill over to a peer (or to any
  peer).  Unlike the rest of the vocabulary this is a *topology* fault:
  it is consumed by the region router's failover plan
  (:mod:`repro.service.regions`), never by a single engine shard, so it
  belongs in ``MultiRegionSpec.partitions`` rather than a scenario's
  fault schedule.

Which completions fail is decided in one place for both event loops:
:class:`CompletionFaults`, built once per simulator from the schedule
and the run seed, owns the fault RNG, the storms' bad buckets and the
open cascade windows.

All fault types are frozen dataclasses so a
:class:`~repro.service.simulation.scenarios.ScenarioSpec` composed of them
is hashable, comparable and serialisable.  Applying the same schedule to
the same seeded simulation always reproduces the same
:class:`~repro.service.simulation.report.LoadTestReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import checks

__all__ = [
    "CascadePolicy",
    "ColdStartWave",
    "CompletionFaults",
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


class _Window:
    """What the faults open over a ``[start_s, end_s)`` window share: the
    window is finite and not empty."""

    def __post_init__(self) -> None:
        checks.non_negative("start_s", self.start_s, finite=True)
        checks.finite("end_s", self.end_s)
        checks.ordered("start_s", self.start_s, "end_s", self.end_s)


class _FlakyWindow(_Window):
    """What the windows that fail completions share: a version scope."""

    def affects(self, version: str, time_s: float) -> bool:
        """Whether a completion of ``version`` at ``time_s`` is in scope."""
        if not self.start_s <= time_s < self.end_s:
            return False
        return self.versions is None or version in self.versions

    def _onset(self, kind: str, detail: str) -> "FaultLogEntry":
        """The log entry of the window opening, at ``start_s``."""
        scope = ",".join(self.versions) if self.versions else "*"
        return FaultLogEntry(self.start_s, kind, scope, None, detail)


class _NodeFault:
    """What the faults that strike one node by pool index share."""

    #: The fault's name in a "skipped" log entry.
    _WHAT = ""
    #: The optional field that ends the fault.
    _END = "until_s"

    def __post_init__(self) -> None:
        checks.non_negative("at_s", self.at_s, finite=True)
        checks.integer("node_index", self.node_index, minimum=0)
        end = getattr(self, self._END)
        if end is not None:
            checks.finite(self._END, end)
            checks.ordered("at_s", self.at_s, self._END, end)

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
    _END = "recover_at_s"

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
        super().__post_init__()
        checks.positive("speed_factor", self.speed_factor, finite=True)

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
class TransientFaults(_FlakyWindow):
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
        super().__post_init__()
        checks.probability("failure_probability", self.failure_probability)

    def onset_entry(self) -> "FaultLogEntry":
        """The log entry of the window opening."""
        return self._onset(
            "transient-window",
            f"p={self.failure_probability:g} until t={self.end_s:g}",
        )


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
        super().__post_init__()
        checks.positive("speed_factor", self.speed_factor)
        checks.probability("speed_factor", self.speed_factor)
        checks.probability("confidence_factor", self.confidence_factor)

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
        checks.positive("window_s", self.window_s, finite=True)
        low, high = self.base_probability, self.max_probability
        checks.probability("base_probability", low)
        checks.probability("max_probability", high)
        checks.ordered("base_probability", low, "max_probability", high, strict=False)
        checks.non_negative("load_factor", self.load_factor, finite=True)

    def probability(self, load: float) -> float:
        """Failure probability at ``load`` mean queued jobs per survivor."""
        return min(
            self.max_probability,
            self.base_probability + self.load_factor * max(0.0, load),
        )

    def open_entry(self, now: float, version: str, until: float) -> "FaultLogEntry":
        """The log entry of a crash opening (or extending) the window."""
        return FaultLogEntry(
            now,
            "cascade",
            version,
            None,
            f"crash opened cascade window until t={until:g} "
            f"(base p={self.base_probability:g}, "
            f"+{self.load_factor:g}/queued-per-node, "
            f"cap {self.max_probability:g})",
        )


@dataclass(frozen=True)
class RetryStorm(_FlakyWindow):
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
        super().__post_init__()
        checks.probability("failure_probability", self.failure_probability)
        checks.probability("bad_fraction", self.bad_fraction)
        checks.positive("bucket_s", self.bucket_s, finite=True)

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

    def onset_entry(self, n_bad: int) -> "FaultLogEntry":
        """The log entry of the storm opening with ``n_bad`` bad buckets."""
        return self._onset(
            "storm-window",
            f"p={self.failure_probability:g} in {n_bad}/{self.n_buckets} "
            f"bad bucket(s) until t={self.end_s:g}",
        )


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
        checks.positive("warmup_s", self.warmup_s, finite=True)
        checks.positive("speed_factor", self.speed_factor)
        checks.probability("speed_factor", self.speed_factor)
        checks.probability("confidence_factor", self.confidence_factor)

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
class ThunderingHerd(_Window):
    """An arrival-side outage: held traffic returns as one synchronized surge.

    Requests that would have arrived inside ``[start_s, end_s)`` (clients
    blocked behind an outage, a cache flush, a mobile push) are *held* and
    released together at ``end_s``, compressed into a burst of width
    ``spread_s`` that preserves their original order.  The engine applies
    the transform (:meth:`apply`) to workloads generated via
    ``ServingSimulator.run``; it draws nothing, so the same seed yields
    the same base arrivals with and without the herd.

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
        super().__post_init__()
        checks.non_negative("spread_s", self.spread_s, finite=True)

    def _holds(self, times_s: np.ndarray) -> np.ndarray:
        return (times_s >= self.start_s) & (times_s < self.end_s)

    def held(self, times_s) -> int:
        """How many of the arrival times fall inside the hold window."""
        return int(np.count_nonzero(self._holds(np.asarray(times_s, dtype=float))))

    def apply(self, times_s) -> np.ndarray:
        """The arrival times with the held ones moved into the release
        burst, order preserved: ``t -> end + (t - start) / window * spread``."""
        times_s = np.asarray(times_s, dtype=float)
        held = self._holds(times_s)
        if not held.any():
            return times_s
        out = times_s.copy()
        out[held] = self.end_s + (times_s[held] - self.start_s) * (
            self.spread_s / (self.end_s - self.start_s)
        )
        return np.sort(out)

    def release_entry(self, held: int) -> "FaultLogEntry":
        """The log entry of the ``held`` arrivals' release, at ``end_s``."""
        return FaultLogEntry(
            self.end_s,
            "herd",
            "*",
            None,
            f"released {held} held arrival(s) over {self.spread_s:g}s",
        )


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
        checks.non_negative("start_s", self.start_s, finite=True)
        checks.ordered("start_s", self.start_s, "end_s", self.end_s)

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
        checks.integer("max_attempts", self.max_attempts, minimum=1)
        checks.non_negative("backoff_s", self.backoff_s, finite=True)
        checks.finite("backoff_factor", self.backoff_factor)
        checks.ordered("1", 1.0, "backoff_factor", self.backoff_factor, strict=False)
        for label, value in (
            ("retry_budget", self.retry_budget),
            ("max_inflight_retries", self.max_inflight_retries),
            ("max_total_retries", self.max_total_retries),
        ):
            if value is not None:
                checks.integer(label, value, minimum=0)

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



class CompletionFaults:
    """Which completions the fault schedule fails, and why.

    The one owner of that decision for both event loops, built once per
    simulator from the fault schedule and the run seed.  Its draws come
    from a dedicated generator (``[seed, 0xFA117]``), created only when a
    :class:`TransientFaults`, :class:`RetryStorm` or
    :class:`CascadePolicy` is scheduled, so a run without them consumes
    exactly the arrival stream's draws.  Each storm's bad buckets are
    precomputed from its own derived generator (``[seed, 0xB1A57, k]``
    for the ``k``-th storm), so completion interleaving can never change
    which buckets are bad, and the shared generator's draw sequence is a
    pure function of the completion order.

    Args:
        faults: The simulator's fault schedule.
        seed: The simulator's seed.
    """

    def __init__(self, faults: Sequence[FaultEvent], seed: int) -> None:
        self._windows = [f for f in faults if isinstance(f, TransientFaults)]
        self._storms = [f for f in faults if isinstance(f, RetryStorm)]
        self._cascades = [f for f in faults if isinstance(f, CascadePolicy)]
        #: Whether any completion can fail.
        self.active = bool(self._windows or self._storms or self._cascades)
        self._rng = np.random.default_rng([seed, 0xFA117]) if self.active else None
        self._bad = [
            np.random.default_rng([seed, 0xB1A57, k]).uniform(size=storm.n_buckets)
            < storm.bad_fraction
            for k, storm in enumerate(self._storms)
        ]
        #: Per version, the virtual time until which a cascade window is open.
        self._until: Dict[str, float] = {}
        bad = iter(self._bad)
        #: Per fault of the schedule, the log entry of its window opening
        #: (``None`` for a fault that opens no window of failures).
        self.onset_entries: List[Optional[FaultLogEntry]] = [
            fault.onset_entry(int(np.count_nonzero(next(bad))))
            if isinstance(fault, RetryStorm)
            else fault.onset_entry() if isinstance(fault, TransientFaults) else None
            for fault in faults
        ]

    def _cascade_for(self, version: str) -> Optional[CascadePolicy]:
        for policy in self._cascades:
            if policy.version is None or policy.version == version:
                return policy
        return None

    def on_crash(self, version: str, now: float) -> Optional[FaultLogEntry]:
        """A node of ``version`` died at ``now``: open (or extend) the
        pool's cascade window and return its log entry, or ``None`` when
        no cascade policy watches the pool."""
        policy = self._cascade_for(version)
        if policy is None:
            return None
        until = max(self._until.get(version, 0.0), now + policy.window_s)
        self._until[version] = until
        return policy.open_entry(now, version, until)

    def failure(
        self, version: str, time_s: float, pool_load: Callable[[str], float]
    ) -> Optional[str]:
        """Why a completion of ``version`` at ``time_s`` fails
        (``"transient"`` or ``"cascade"``), or ``None`` when it stands.

        Mechanisms are consulted in a fixed order — transient windows,
        retry storms, the cascade window — and within each class the
        first fault in scope draws and decides.  ``pool_load(version)``,
        the mean queued jobs per live node, is read only inside an open
        cascade window.
        """
        rng = self._rng
        if rng is None:
            return None
        for window in self._windows:
            if window.affects(version, time_s):
                if rng.uniform() < window.failure_probability:
                    return "transient"
                break
        for storm, bad in zip(self._storms, self._bad):
            if storm.affects(version, time_s):
                if bad[storm.bucket_of(time_s)] and (
                    rng.uniform() < storm.failure_probability
                ):
                    return "transient"
                break
        until = self._until.get(version)
        if until is not None and time_s < until:
            probability = self._cascade_for(version).probability(pool_load(version))
            if rng.uniform() < probability:
                return "cascade"
        return None
