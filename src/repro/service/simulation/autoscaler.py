"""Pool autoscaling driven by queue depth and utilization.

The simulator evaluates each pool on a fixed cadence.  A pool scales *up*
when its backlog per node crosses ``scale_up_queue_depth`` or its busy
fraction over the last window crosses ``scale_up_utilization``; it scales
*down* when it is simultaneously drained (no backlog) and under-utilized.
Scale-downs only ever remove idle nodes (the load balancer's rule: the
last node in pool order with an empty queue and no running work) and
never shrink a pool below ``min_nodes``.  A per-pool cooldown stops the
controller from flapping on one transient spike.  :class:`PoolScaling`
is the one owner of that tick for both event loops: they only actuate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Sized

from repro import checks

__all__ = ["Autoscaler", "AutoscalerConfig", "PoolScaling", "ScalingEvent"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Controller parameters shared by every pool.

    Attributes:
        min_nodes: Floor no pool may shrink below.
        max_nodes: Ceiling no pool may grow above.
        scale_up_queue_depth: Mean queued requests per node that triggers a
            scale-up.
        scale_up_utilization: Busy fraction over the evaluation window that
            triggers a scale-up.
        scale_down_utilization: Busy fraction below which an idle pool
            sheds one node.
        evaluation_interval_s: Virtual seconds between controller runs.
        cooldown_s: Minimum virtual seconds between two scaling actions on
            the same pool.
    """

    min_nodes: int = 1
    max_nodes: int = 8
    scale_up_queue_depth: float = 4.0
    scale_up_utilization: float = 0.85
    scale_down_utilization: float = 0.25
    evaluation_interval_s: float = 1.0
    cooldown_s: float = 3.0

    def __post_init__(self) -> None:
        checks.integer("min_nodes", self.min_nodes, minimum=1)
        checks.integer("max_nodes", self.max_nodes, minimum=self.min_nodes)
        checks.positive("scale_up_queue_depth", self.scale_up_queue_depth)
        down, up = self.scale_down_utilization, self.scale_up_utilization
        checks.positive("scale_up_utilization", up)
        checks.probability("scale_up_utilization", up)
        checks.non_negative("scale_down_utilization", down)
        checks.ordered("scale_down_utilization", down, "scale_up_utilization", up)
        checks.positive("evaluation_interval_s", self.evaluation_interval_s)
        checks.non_negative("cooldown_s", self.cooldown_s)


@dataclass(frozen=True)
class ScalingEvent:
    """One scaling action the controller took (or recommended).

    Attributes:
        time_s: Virtual time of the decision.
        version: Pool that scaled.
        old_size: Node count before.
        new_size: Node count after.
        reason: Which trigger fired (``"queue-depth"``, ``"utilization"``,
            ``"dead-pool"`` or ``"idle"``).
    """

    time_s: float
    version: str
    old_size: int
    new_size: int
    reason: str


class Autoscaler:
    """Stateful per-pool scaling controller.

    Args:
        config: Shared controller parameters.
    """

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self._last_action_at: Dict[str, float] = {}
        self.events: List[ScalingEvent] = []

    def decide(
        self,
        version: str,
        *,
        n_nodes: int,
        queue_depth: int,
        utilization: float,
        now: float,
    ) -> Optional[str]:
        """The trigger that fires for one pool at one instant.

        Args:
            version: Pool being evaluated.
            n_nodes: Current pool size.
            queue_depth: Requests queued (not yet started) across the pool.
            utilization: Pool busy fraction over the last evaluation
                window, in ``[0, 1]``-ish (transients may exceed 1).
            now: Current virtual time.

        Returns:
            ``"dead-pool"``, ``"queue-depth"`` or ``"utilization"`` to grow
            by one node, ``"idle"`` to shrink by one, ``None`` to hold.
            The caller actuates the change and must call :meth:`record`
            if it did.
        """
        cfg = self.config
        if n_nodes == 0:
            # Fault injection can kill a whole pool.  A dead pool with
            # waiting work is replaced unconditionally — neither a backlog
            # threshold nor the cooldown should keep a service at zero
            # capacity (the cooldown exists to damp flapping, and a pool
            # at zero with queued work is not flapping, it is down).
            return "dead-pool" if queue_depth > 0 else None
        last = self._last_action_at.get(version)
        if last is not None and now - last < cfg.cooldown_s:
            return None
        if n_nodes < cfg.max_nodes:
            if queue_depth / n_nodes >= cfg.scale_up_queue_depth:
                return "queue-depth"
            if utilization >= cfg.scale_up_utilization:
                return "utilization"
        if (
            n_nodes > cfg.min_nodes
            and queue_depth == 0
            and utilization <= cfg.scale_down_utilization
        ):
            return "idle"
        return None

    def record(
        self,
        version: str,
        *,
        old_size: int,
        new_size: int,
        now: float,
        reason: str,
    ) -> None:
        """Log an actuated scaling action and start the pool's cooldown."""
        self._last_action_at[version] = now
        self.events.append(ScalingEvent(now, version, old_size, new_size, reason))


def _busy(nodes: Sequence) -> float:
    return sum(node.busy_seconds for node in nodes)


class PoolScaling:
    """Every scaling action of one run, for whichever loop drains.

    The one owner of the autoscaler's tick, built once per simulator that
    has an :class:`Autoscaler`: it reads each pool (size, backlog with
    parked jobs, busy seconds), keeps the utilization baseline — started
    at the busy seconds the ``balancer``'s nodes already hold, so the
    first tick measures only this run — asks the autoscaler for a trigger
    and books each action taken.  The loops only actuate.
    """

    def __init__(self, autoscaler: Autoscaler, balancer) -> None:
        self.autoscaler = autoscaler
        #: Virtual seconds between two ticks.
        self.interval = autoscaler.config.evaluation_interval_s
        self._last_busy: Dict[str, float] = {
            version: _busy(balancer.nodes_of(version))
            for version in balancer.versions
        }

    def rebase(self, version: str, survivors: Sequence) -> None:
        """A node of ``version`` crashed: the baseline becomes the
        survivors' busy sum.  (Subtracting the victim's busy seconds would
        not do: the kill refunded the unelapsed share of a batch an
        earlier tick counted whole, so the next tick would read a degraded
        pool as idle.)"""
        self._last_busy[version] = _busy(survivors)

    def tick(
        self,
        now: float,
        pools: Mapping[str, Sequence],
        parked: Mapping[str, Sized],
        grow: Callable[[str], None],
        shrink: Callable[[str], Optional[object]],
    ) -> None:
        """Evaluate every pool at ``now``, in ``pools`` order: ``pools``
        maps each version to its live nodes (anything with
        ``queue_depth`` and ``busy_seconds``), ``parked`` to the jobs
        waiting for one.  ``grow(version)`` adds a node;
        ``shrink(version)`` retires the pool's last idle node and returns
        it, or ``None`` when no node is idle (nothing is booked then)."""
        for version, nodes in pools.items():
            n_nodes = len(nodes)
            backlog = sum(node.queue_depth for node in nodes) + len(
                parked.get(version, ())
            )
            busy = _busy(nodes)
            utilization = (
                (busy - self._last_busy[version]) / (n_nodes * self.interval)
                if n_nodes
                else 0.0
            )
            self._last_busy[version] = busy
            reason = self.autoscaler.decide(
                version, n_nodes=n_nodes, queue_depth=backlog,
                utilization=utilization, now=now,
            )
            if reason is None:
                continue
            if reason != "idle":
                grow(version)
            else:
                removed = shrink(version)
                if removed is None:
                    continue
                # Keep the baseline to the surviving membership, else the
                # next tick's busy delta goes negative by the removed
                # node's lifetime total.
                self._last_busy[version] -= removed.busy_seconds
            self.autoscaler.record(
                version, old_size=n_nodes, now=now, reason=reason,
                new_size=n_nodes + (-1 if reason == "idle" else 1),
            )
