"""The harness's own span recorder: host-clock spans around layer calls.

The benchmark measures every layer of ``repro`` *from outside*: the
harness wraps each call into a layer's public function in a span and
derives the layer's time from the span tree.  Nothing here touches the
program under test, and nothing here is related to ``repro.obs`` (those
spans live on the simulated service's virtual clock; these live on the
host clock of the process running the study).

A span is ``(name, start, end, parent)``; spans opened while another is
open become its children.  A span's **self time** is its duration minus
the part of it covered by its direct children — time in grandchildren is
already inside the children, so it is never subtracted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One timed interval.  ``parent`` is an index into the recorder."""

    __slots__ = ("index", "name", "start_s", "end_s", "parent")

    def __init__(
        self, index: int, name: str, start_s: float, parent: Optional[int]
    ) -> None:
        self.index = index
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.parent = parent

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_s - self.start_s


class SpanRecorder:
    """In-memory recorder; spans are written out when the run ends.

    Args:
        workload: Identifier shared by every span of the recorder (the
            benchmark's analogue of a trace id).
        clock: Monotonic clock in seconds; tests substitute a fake.
    """

    def __init__(
        self,
        workload: str,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.workload = workload
        self._clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self._clock(), parent)
        self.spans.append(span)
        self._open.append(span.index)
        try:
            yield span
        finally:
            span.end_s = self._clock()
            self._open.pop()

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def self_time_s(self, span: Span) -> float:
        """Duration minus the time covered by the span's direct children."""
        covered = sum(child.duration_s for child in self.children(span))
        return span.duration_s - covered

    def subtree(self, root: Span) -> List[Span]:
        """``root`` and every span below it, in recording order."""
        inside = {root.index}
        found = [root]
        for span in self.spans[root.index + 1 :]:
            if span.parent in inside:
                inside.add(span.index)
                found.append(span)
        return found

    def self_times_by_name(self, root: Span) -> Dict[str, float]:
        """Summed self time per span name over ``root``'s subtree."""
        totals: Dict[str, float] = {}
        for span in self.subtree(root):
            totals[span.name] = totals.get(span.name, 0.0) + self.self_time_s(span)
        return totals

    def roots(self, name: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.parent is None and (name is None or s.name == name)
        ]

    def dump_jsonl(self, path) -> None:
        """Write one JSON line per span (closed spans only)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.end_s is None:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "workload": self.workload,
                            "index": span.index,
                            "parent": span.parent,
                            "name": span.name,
                            "start_s": span.start_s,
                            "end_s": span.end_s,
                            "self_s": self.self_time_s(span),
                        }
                    )
                    + "\n"
                )
