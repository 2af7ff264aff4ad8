"""Pool autoscaling driven by queue depth and utilization.

The simulator evaluates each pool on a fixed cadence.  A pool scales *up*
when its backlog per node crosses ``scale_up_queue_depth`` or its busy
fraction over the last window crosses ``scale_up_utilization``; it scales
*down* when it is simultaneously drained (no backlog) and under-utilized.
Scale-downs only ever remove idle nodes (the load balancer refuses to
evict a node with queued or running work) and never shrink a pool below
``min_nodes``.  A per-pool cooldown stops the controller from flapping on
one transient spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import checks

__all__ = ["Autoscaler", "AutoscalerConfig", "ScalingEvent"]


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
    ) -> int:
        """Decide the node-count delta for one pool at one instant.

        Args:
            version: Pool being evaluated.
            n_nodes: Current pool size.
            queue_depth: Requests queued (not yet started) across the pool.
            utilization: Pool busy fraction over the last evaluation
                window, in ``[0, 1]``-ish (transients may exceed 1).
            now: Current virtual time.

        Returns:
            ``+1`` to grow, ``-1`` to shrink, ``0`` to hold.  The caller
        actuates the change and must call :meth:`record` if it did.
        """
        cfg = self.config
        if n_nodes == 0:
            # Fault injection can kill a whole pool.  A dead pool with
            # waiting work is replaced unconditionally — neither a backlog
            # threshold nor the cooldown should keep a service at zero
            # capacity (the cooldown exists to damp flapping, and a pool
            # at zero with queued work is not flapping, it is down).
            return 1 if queue_depth > 0 else 0
        last = self._last_action_at.get(version)
        if last is not None and now - last < cfg.cooldown_s:
            return 0
        backlog_per_node = queue_depth / max(n_nodes, 1)
        if n_nodes < cfg.max_nodes and (
            backlog_per_node >= cfg.scale_up_queue_depth
            or utilization >= cfg.scale_up_utilization
        ):
            return 1
        if (
            n_nodes > cfg.min_nodes
            and queue_depth == 0
            and utilization <= cfg.scale_down_utilization
        ):
            return -1
        return 0

    def reason_for(
        self, delta: int, *, queue_depth: int, n_nodes: int
    ) -> str:
        """Human-readable trigger name for a non-zero decision."""
        if delta > 0:
            if n_nodes == 0:
                return "dead-pool"
            backlog = queue_depth / max(n_nodes, 1)
            if backlog >= self.config.scale_up_queue_depth:
                return "queue-depth"
            return "utilization"
        return "idle"

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
        self.events.append(
            ScalingEvent(
                time_s=now,
                version=version,
                old_size=old_size,
                new_size=new_size,
                reason=reason,
            )
        )
