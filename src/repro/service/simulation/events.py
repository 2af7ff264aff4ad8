"""Virtual-clock discrete-event machinery.

A tiny, dependency-free event loop: callers schedule callbacks at virtual
timestamps and :meth:`EventLoop.run` fires them in time order, advancing
:attr:`EventLoop.now` as it goes.  Ties break by scheduling order, which
keeps simulations deterministic for a fixed seed.  Events can be cancelled
lazily (a batch-timeout flush that lost its race against a full batch just
becomes a no-op when popped).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = ["Event", "EventLoop"]


class Event:
    """One scheduled callback.

    Attributes:
        time: Virtual firing time.
        kind: Free-form label for debugging/inspection.
        cancelled: When true the event is skipped on pop.
    """

    __slots__ = ("time", "kind", "action", "cancelled")

    def __init__(self, time: float, kind: str, action: Callable[[], None]) -> None:
        self.time = time
        self.kind = kind
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventLoop:
    """A min-heap of events under a monotonically advancing virtual clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def pending(self) -> Iterator[Event]:
        """The scheduled, non-cancelled events, in no particular order."""
        return (event for _, _, event in self._heap if not event.cancelled)

    def schedule_at(
        self, time: float, action: Callable[[], None], *, kind: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``.

        Raises:
            ValueError: If ``time`` lies in the virtual past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        event = Event(time, kind, action)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule(
        self, delay: float, action: Callable[[], None], *, kind: str = ""
    ) -> Event:
        """Schedule ``action`` after a non-negative virtual ``delay``."""
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, action, kind=kind)

    def step(self) -> bool:
        """Fire the next non-cancelled event; returns false when empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            event.action()
            return True
        return False

    def run(self, *, max_events: Optional[int] = None) -> int:
        """Run events until the heap empties (or the valve is hit).

        Args:
            max_events: Safety valve on the number of events fired
                (:meth:`pending` is non-empty after a valve stop).

        Returns:
            The number of events fired.
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            if self.step():
                fired += 1
        return fired
