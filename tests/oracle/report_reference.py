"""The per-record report the column-backed ``LoadTestReport`` replaced.

Reference implementation for ``tests/service`` and ``tests/gateway``:
the per-record digest renderer (``_record_digest_rows``, moved here
verbatim from ``src/repro/service/simulation/report.py`` when every
report became ``RecordColumns``) and the headline aggregates computed
by walking ``RequestRecord`` objects.  It reads nothing but the records
it is handed — no columns, no pair table, no sentinel — so it is what
the column renderer, ``RecordColumns.from_records`` and the array
aggregates are differential-tested against.  Slow, and obviously right.
Do not optimise this file.  (Span trees have their reference in ``src``:
``repro.obs.trace_from_record``, which the synchronous gateway uses.)
The seeded ``from_records`` bugs those tests must catch sit at the end.

Float contract, as in the production report: NumPy does the reductions
whose rounding the summary pins (``mean``, ``percentile``, ``max`` /
``min`` with their NaN propagation), the builtin left-to-right ``sum``
adds the costs, and per-version node-seconds accumulate record by
record.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Mapping, Sequence

import numpy as np


def record_digest_rows(records) -> Iterator[str]:
    """Digest rows of a record list, one record at a time."""
    for r in records:
        seconds = ",".join(
            f"{version}={r.node_seconds[version]:.12e}"
            for version in sorted(r.node_seconds)
        )
        flags = (
            ("|shed" if r.shed else "")
            + ("|degraded" if r.degraded else "")
            + ("|retry-denied" if r.retry_denied else "")
        )
        yield (
            f"{r.request_id}|{r.payload}|{r.tier:.12e}|"
            f"{r.arrival_s:.12e}|{r.finished_s:.12e}|"
            f"{','.join(r.versions_used)}|{int(r.escalated)}|"
            f"{int(r.failed)}|{r.retries}|"
            f"{r.invocation_cost:.12e}|{seconds}{flags}\n"
        )


def reference_digest(
    records,
    final_pool_sizes: Mapping[str, int] = (),
    fault_log: Sequence = (),
    control_log: Sequence = (),
) -> str:
    """``LoadTestReport.digest()`` of a report holding ``records``."""
    h = hashlib.sha256()
    for row in record_digest_rows(records):
        h.update(row.encode())
    for version in sorted(final_pool_sizes):
        h.update(f"pool:{version}={final_pool_sizes[version]}\n".encode())
    for entry in fault_log:
        h.update(
            (
                f"fault:{entry.time_s:.12e}|{entry.kind}|{entry.version}|"
                f"{entry.detail}\n"
            ).encode()
        )
    for entry in control_log:
        h.update(
            f"control:{entry.time_s:.12e}|{entry.kind}|{entry.detail}\n".encode()
        )
    return h.hexdigest()


def reference_node_seconds(records) -> Dict[str, float]:
    """``LoadTestReport.total_node_seconds``, record by record."""
    total: Dict[str, float] = {}
    for r in records:
        for version, seconds in r.node_seconds.items():
            total[version] = total.get(version, 0.0) + seconds
    return total


def reference_summary(
    records,
    *,
    offered_rate=None,
    n_scaling_events: int = 0,
    n_fault_events: int = 0,
    n_control_events: int = 0,
) -> Dict[str, float]:
    """``LoadTestReport.summary()`` of a report holding ``records``."""
    nan = float("nan")
    n = len(records)
    answered = [r for r in records if not (r.failed or r.shed)]
    latencies = np.array([r.response_time_s for r in answered], dtype=float)
    waits = np.array([r.queue_wait_s for r in answered], dtype=float)
    n_failed = sum(1 for r in records if r.failed)
    n_shed = sum(1 for r in records if r.shed)
    total_retries = int(sum(r.retries for r in records))
    span = float(np.array([r.finished_s for r in records], dtype=float).max()) - float(
        np.array([r.arrival_s for r in records], dtype=float).min()
    )

    def percentile(q: float) -> float:
        return float(np.percentile(latencies, q)) if latencies.size else nan

    return {
        "n_requests": n,
        "offered_rate_rps": nan if offered_rate is None else offered_rate,
        "throughput_rps": n / span if span > 0.0 else float("inf"),
        "goodput_rps": (
            (n - n_failed - n_shed) / span if span > 0.0 else float("inf")
        ),
        "availability": 1.0 - (n_failed + n_shed) / n,
        "n_failed": n_failed,
        "n_shed": n_shed,
        "n_degraded": sum(1 for r in records if r.degraded and not r.failed),
        "n_retry_denied": sum(1 for r in records if r.retry_denied),
        "total_retries": total_retries,
        "retry_amplification": 1.0 + total_retries / n,
        "p50_latency_s": percentile(50.0),
        "p95_latency_s": percentile(95.0),
        "p99_latency_s": percentile(99.0),
        "mean_latency_s": float(latencies.mean()) if latencies.size else nan,
        "mean_queue_wait_s": float(np.mean(waits)) if waits.size else nan,
        "mean_invocation_cost": float(sum(r.invocation_cost for r in records)) / n,
        "escalation_rate": float(np.mean([bool(r.escalated) for r in records])),
        "n_scaling_events": n_scaling_events,
        "n_fault_events": n_fault_events,
        "n_control_events": n_control_events,
    }


# ----------------------------------------------------------------------
# seeded transposition bugs (what the differential tests must catch)
# ----------------------------------------------------------------------
def drops_the_sentinel(real):
    """A ``from_records`` forgetting that a failed row billed nothing."""

    def from_records(records):
        columns = real(records)
        columns.node_seconds_fast[columns.nothing_billed] = 0.0
        return columns

    return from_records


def confuses_none_with_nan(real):
    """A ``from_records`` storing "no confidence" as a measured ``nan``."""

    def from_records(records):
        columns = real(records)
        columns.confidence[columns.no_confidence] = float("nan")
        columns.no_confidence[:] = False
        return columns

    return from_records
