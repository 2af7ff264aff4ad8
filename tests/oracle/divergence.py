"""Where two load-test reports first differ, for the differential tests.

:meth:`LoadTestReport.digest` says *whether* two reports differ; when a
differential test fails it needs *where*: the first diverging row, field
and both values instead of two opaque hashes.  :func:`first_divergence`
compares each digest field the way the digest sees it — floats through
the digest's own rounding, :func:`repro.service.simulation.report.rounded_bits`,
only billed legs — so it flags exactly what the digest flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.service.simulation.report import (
    LoadTestReport,
    RecordColumns,
    _control_line,
    _fault_line,
    rounded_bits,
)


@dataclass(frozen=True)
class Divergence:
    """First observable difference between two reports.

    ``where`` names the stream (``record``, ``pool``, ``fault``,
    ``control`` or ``length``), ``index`` the position in that stream,
    ``field`` the diverging record field (record stream only).
    """

    where: str
    index: Optional[int]
    field: Optional[str]
    left: object
    right: object

    def describe(self, left_name: str = "left", right_name: str = "right") -> str:
        place = f"{self.where}[{self.index}]" if self.index is not None else self.where
        if self.field:
            place += f".{self.field}"
        return (
            f"first divergence at {place}:\n"
            f"  {left_name:>8}: {self.left!r}\n"
            f"  {right_name:>8}: {self.right!r}"
        )


def _digest_fields(columns: RecordColumns) -> Iterator[Tuple[str, list]]:
    """``(record field, each row's value as the digest sees it)`` per
    digest field, in digest order — so ``first_divergence`` flags
    precisely what :meth:`LoadTestReport.digest` flags."""

    def rounded(*names: str):
        for name in names:
            yield name, rounded_bits(getattr(columns, name)).tolist()

    yield "request_id", columns.request_ids
    yield "payload", list(map(format, columns.payloads))
    yield from rounded("tier", "arrival_s", "finished_s")
    yield "versions_used", columns.versions_used()
    for name in ("escalated", "failed", "retries"):
        yield name, getattr(columns, name).tolist()
    yield from rounded("invocation_cost")
    yield "node_seconds", [
        (tuple(row), rounded_bits(np.array(list(row.values()), float)).tolist())
        for row in columns.row_node_seconds(slice(None))
    ]
    for name in ("shed", "degraded", "retry_denied"):
        yield name, getattr(columns, name).tolist()


def first_divergence(
    left: LoadTestReport, right: LoadTestReport
) -> Optional[Divergence]:
    """Locate the first digest-visible difference between two reports.

    Diffs the two reports' columns field by field (floats as the digest
    rounds them, so a wiggle below the kept mantissa bits that the digest
    would not see is not reported) and names the first differing row's first
    differing field, then the pool sizes, the fault log and the control
    log.  Returns ``None`` when the two reports digest identically.
    """
    first = None
    for (name, mine), (_, theirs) in zip(
        _digest_fields(left.columns), _digest_fields(right.columns)
    ):
        differing = (i for i, (l, r) in enumerate(zip(mine, theirs)) if l != r)
        row = next(differing, None)
        if row is not None and (first is None or row < first[0]):
            first = row, name
    if first is not None:
        row, name = first
        values = (getattr(report.records[row], name) for report in (left, right))
        return Divergence("record", row, name, *values)
    if len(left.records) != len(right.records):
        return Divergence(
            "length", None, "n_records", len(left.records), len(right.records)
        )
    if left.final_pool_sizes != right.final_pool_sizes:
        return Divergence(
            "pool", None, None, left.final_pool_sizes, right.final_pool_sizes
        )
    for where, count, line, log_l, log_r in (
        ("fault", "n_faults", _fault_line, left.fault_log, right.fault_log),
        ("control", "n_control", _control_line, left.control_log, right.control_log),
    ):
        for i, (entry_l, entry_r) in enumerate(zip(log_l, log_r)):
            if line(entry_l) != line(entry_r):
                return Divergence(where, i, None, entry_l, entry_r)
        if len(log_l) != len(log_r):
            return Divergence("length", None, count, len(log_l), len(log_r))
    return None
