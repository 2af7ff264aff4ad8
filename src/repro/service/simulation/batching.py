"""Node-level request batching and its sublinear latency model.

Serving systems batch requests to trade a little latency for a lot of
throughput: running ``k`` requests through a model together costs much
less than ``k`` solo passes (weights are loaded once, matrix work is
wider).  :class:`BatchingConfig` captures the two knobs every batching
serving stack exposes — the maximum batch size and the maximum time the
head-of-line request may wait for the batch to fill — plus the latency
model used by :meth:`~repro.service.node.ServiceNode.execute_batch`:

    ``batch_time(t_1..t_k) = max(t_i) * k ** latency_exponent``

With ``latency_exponent = 1`` batching degenerates to serial execution of
the slowest-member time (no benefit); with ``0`` a batch costs no more
than its slowest member (perfect parallelism).  The default ``0.7`` gives
the sublinear scaling measured on real inference servers: a batch of 8
costs ~4.3x one request instead of 8x, i.e. per-request node-seconds drop
by ~46 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["BatchingConfig"]


@dataclass(frozen=True)
class BatchingConfig:
    """Batching policy of one node pool.

    Attributes:
        max_batch_size: Largest batch a node may execute at once.  ``1``
            disables batching entirely.
        max_wait_s: Deadline a queued request may wait for batchmates,
            measured from its *enqueue* time: an idle node holds a
            part-filled batch only until its head-of-line request has been
            queued this long, then executes what it has.  A request that
            already waited this long behind a busy node is executed as
            soon as the node frees up.  ``0.0`` means never hold back: a
            free node starts immediately with whatever is queued.
        latency_exponent: Exponent of the sublinear batch latency model in
            ``[0, 1]``; see the module docstring.
    """

    max_batch_size: int = 1
    max_wait_s: float = 0.0
    latency_exponent: float = 0.7

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if not self.max_wait_s >= 0.0:  # NaN fails it too
            raise ValueError("max_wait_s must be non-negative")
        if not 0.0 <= self.latency_exponent <= 1.0:
            raise ValueError("latency_exponent must be in [0, 1]")

    def batch_service_time(self, solo_times_s: Sequence[float]) -> float:
        """Wall time to execute one batch of requests together.

        Args:
            solo_times_s: Each member's solo service time on the executing
                node.

        Returns:
            The batch's wall service time; never less than the slowest
            member's solo time.
        """
        if not solo_times_s:
            raise ValueError("batch must contain at least one request")
        if len(solo_times_s) > self.max_batch_size:
            raise ValueError(
                f"batch of {len(solo_times_s)} exceeds max_batch_size="
                f"{self.max_batch_size}"
            )
        return max(solo_times_s) * len(solo_times_s) ** self.latency_exponent
