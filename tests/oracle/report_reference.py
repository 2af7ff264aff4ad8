"""The per-record report the column-backed ``LoadTestReport`` replaced.

Reference implementation for ``tests/service`` and ``tests/gateway``:
the report digest computed one record at a time — contract versions 2
and 3 (:func:`reference_digest`, floats rounded through ``struct``; the
two differ only in their ``report-digest:v{n}`` header) and the
version 1 text rows they replaced (:func:`record_digest_rows`, byte for
byte what ``src/repro/service/simulation/report.py`` hashed until the
contract bump, kept to explain divergences and to prove that the bump
changed the hash, not behaviour) — and the headline aggregates computed
by walking ``RequestRecord`` objects.  It reads nothing but the records
it is handed — no columns, no pair table, no sentinel — so it is what
the column digest, ``RecordColumns.from_records`` and the array
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
import json
import math
import struct
from typing import Dict, Iterator, Mapping, Sequence

import numpy as np

from repro.contract import (
    CONTRACT_VERSION,
    DIGEST_COLUMNS,
    DIGEST_MANTISSA_BITS,
    DIGEST_NAN_BITS,
)


def record_digest_rows(records) -> Iterator[str]:
    """Version 1 digest rows of a record list, one record at a time."""
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


def _log_lines(final_pool_sizes, fault_log, control_log) -> Iterator[str]:
    """The text lines both contract versions end with."""
    for version in sorted(final_pool_sizes):
        yield f"pool:{version}={final_pool_sizes[version]}\n"
    for entry in fault_log:
        yield (
            f"fault:{entry.time_s:.12e}|{entry.kind}|{entry.version}|"
            f"{entry.detail}\n"
        )
    for entry in control_log:
        yield f"control:{entry.time_s:.12e}|{entry.kind}|{entry.detail}\n"


def report_digest_v1(report) -> str:
    """What ``report.digest()`` returned under contract version 1."""
    h = hashlib.sha256()
    for row in record_digest_rows(report.records):
        h.update(row.encode())
    logs = report.final_pool_sizes, report.fault_log, report.control_log
    for line in _log_lines(*logs):
        h.update(line.encode())
    return h.hexdigest()


def rounded(value: float) -> int:
    """``value``'s binary64 bits rounded half away from zero to the
    contract's mantissa bits, through ``struct``; NaN is one pattern."""
    if math.isnan(value):
        return DIGEST_NAN_BITS
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    dropped = 52 - DIGEST_MANTISSA_BITS
    bits = (bits + (1 << (dropped - 1))) >> dropped << dropped
    assert bits < 1 << 64  # only a NaN's bits could carry out
    return bits


def report_digest_v2(report) -> str:
    """What ``report.digest()`` returned under contract version 2."""
    logs = report.final_pool_sizes, report.fault_log, report.control_log
    return reference_digest(report.records, *logs, version=2)


def reference_digest(
    records,
    final_pool_sizes: Mapping[str, int] = (),
    fault_log: Sequence = (),
    control_log: Sequence = (),
    *,
    version: int = CONTRACT_VERSION,
) -> str:
    """``LoadTestReport.digest()`` of a report holding ``records``, under
    contract ``version`` (2 or later: the column layout)."""
    records = list(records)
    pairs = sorted({r.versions_used for r in records if r.versions_used})

    def leg(r, index):
        if len(r.versions_used) <= index:
            return -1.0  # did not bill this leg
        return r.node_seconds[r.versions_used[index]]

    floats = {
        "tier": [r.tier for r in records],
        "arrival_s": [r.arrival_s for r in records],
        "finished_s": [r.finished_s for r in records],
        "invocation_cost": [r.invocation_cost for r in records],
        "node_seconds_fast": [leg(r, 0) for r in records],
        "node_seconds_accurate": [leg(r, 1) for r in records],
    }
    integers = {
        "pair": [
            pairs.index(r.versions_used) if r.versions_used else -1 for r in records
        ],
        **{
            name: [int(getattr(r, name)) for r in records]
            for name in (
                "escalated", "failed", "retries", "shed", "degraded", "retry_denied"
            )
        },
    }
    strings = {
        "request_ids": [r.request_id for r in records],
        "payloads": [f"{r.payload}" for r in records],
        "pairs": [json.dumps(pair) for pair in pairs],
    }
    h = hashlib.sha256(f"report-digest:v{version}\n".encode())
    for name in DIGEST_COLUMNS:
        if name in floats:
            values = [rounded(v) for v in floats[name]]
            data = struct.pack(f"<{len(values)}Q", *values)
        elif name in integers:
            values = integers[name]
            data = struct.pack(f"<{len(values)}q", *values)
        else:
            values = strings[name]
            data = struct.pack(f"<{len(values)}q", *map(len, values))
            data += "".join(values).encode()
        h.update(f"{name}:{len(values)}\n".encode() + data)
    for line in _log_lines(final_pool_sizes, fault_log, control_log):
        h.update(line.encode())
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
