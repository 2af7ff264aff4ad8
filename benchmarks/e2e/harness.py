"""One process's share of a benchmark run: set up once, repeat, check.

``run.py`` starts this in a fresh child process per set-up, so that
``setup_s`` (imports included) and ``peak_rss_mb`` belong to one workload
and nothing is warm that a user's first run would find cold.

Protocol, the same on every commit:

1. set-up: import ``repro``, build tables / rules / request lists, then
   one discarded warm-up repetition — ``setup_s`` ends here;
2. timed repetitions with tracing off until ``seconds`` have passed (at
   least ``MIN_REPS``): ``gc.collect()`` before each, GC left on during,
   and the calibration kernel (``probe_s``) timed between repetitions;
3. with ``trace`` on, every untraced repetition is followed by a traced
   pass in which the harness's span recorder wraps each layer call; the
   traced passes alone give the per-layer numbers and their slowdown is
   ``harness.trace_overhead_pct``;
4. correctness checks after every repetition, outside the timed region.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import SpanRecorder

__all__ = ["MIN_REPS", "PROBE_REF_S", "measure", "probe_s"]

MIN_REPS = 2
PROBE_OBJECTS = 30_000
#: What the calibration kernel takes on the builder's 2-vCPU machine when its
#: host is quiet.  ``wall_s`` is a repetition's time divided by the kernel's
#: time beside it, times this: seconds on a host of that speed.
PROBE_REF_S = 0.018


def _current_rss_mb() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return _peak_rss_mb()


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(part: float, whole: float) -> float:
    return part / whole * 100.0


class _Record:
    """What the calibration kernel allocates: a small object with a dict."""

    __slots__ = ("key", "value", "tags")

    def __init__(self, key: int, value: float, tags: dict) -> None:
        self.key, self.value, self.tags = key, value, tags


def probe_s() -> float:
    """Time the calibration kernel: how fast the host is right now.

    Builtins doing what the workloads do — allocate small objects, sort,
    sum, index — over a few MiB, with the collector off so that the size of
    the workload's own heap cannot move it.  Nothing of ``repro`` runs here,
    so no change to the program changes the ruler.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        records = [
            _Record(i * 7919 % 10007, float(i), {"i": i}) for i in range(PROBE_OBJECTS)
        ]
        records.sort(key=lambda r: r.key)
        total = sum(r.value for r in records)
        index = {r.key: r for r in records}
        elapsed = time.perf_counter() - t0
        del records, index, total
        return elapsed
    finally:
        gc.enable()


class _Checks:
    """Tally of correctness checks; a False is counted, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_names: List[str] = []

    def add(self, results: Dict[str, bool]) -> None:
        self.attempted += len(results)
        self.failed_names.extend(name for name, ok in results.items() if not ok)


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float,
    once_checks: bool,
    out_dir: Path,
    entered_at: Optional[float] = None,
) -> dict:
    """Run one workload in this process and return its raw samples."""
    entered_at = time.perf_counter() if entered_at is None else entered_at
    loadavg_1m = os.getloadavg()[0]
    rec = SpanRecorder(name)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        with rec.span("setup") as setup_span:
            with rec.span("harness.imports"):
                from workloads import WORKLOADS
            workload = WORKLOADS[name](seed, scale, rec, tmp_dir)
            with rec.span("harness.warmup"):
                workload.pipeline()
        setup_s = time.perf_counter() - entered_at
        rss_after_setup_mb = _current_rss_mb()

        checks = _Checks()
        reference_digest: Optional[str] = None
        walls: List[float] = []
        traced_walls: List[float] = []
        pass_layers: List[Dict[str, float]] = []
        unattributed: List[float] = []
        outcome = None

        def check(outcome) -> None:
            nonlocal reference_digest
            workload.after_timing(outcome)
            checks.add(workload.rep_checks(outcome))
            if reference_digest is None:
                reference_digest = outcome.digest
            else:
                checks.add(
                    {
                        "digest identical across repetitions": outcome.digest
                        == reference_digest
                    }
                )

        deadline = time.perf_counter() + seconds
        # A probe on each side of every repetition: host speed then and there.
        probes = [probe_s()]
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            outcome = None
            gc.collect()
            t0 = time.perf_counter()
            outcome = workload.pipeline()
            walls.append(time.perf_counter() - t0)
            probes.append(probe_s())
            check(outcome)
            if trace:
                outcome = None
                gc.collect()
                with rec.span("pipeline") as root:
                    outcome = workload.pipeline(rec)
                traced_walls.append(root.duration_s)
                check(outcome)
                pass_layers.append(rec.self_times_by_name(root))
                unattributed.append(_pct(rec.self_time_s(root), root.duration_s))
        peak_rss_mb = _peak_rss_mb()

        if once_checks:
            checks.add(workload.once_checks(outcome))
        wall_s = min(walls)
        result = {
            "workload": name,
            "seed": seed,
            "scaled": scale != 1.0,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "walls": walls,
            "probes": probes,
            "normalised_walls": [
                wall / ((before + after) / 2.0) * PROBE_REF_S
                for wall, before, after in zip(walls, probes, probes[1:])
            ],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": checks.attempted,
            "failed_checks": checks.failed_names,
            "digest": reference_digest,
            "sim": workload.sim_metrics(outcome),
            "fallback_reasons": outcome.fallback_reasons,
        }
        if trace:
            layers = {
                span_name: statistics.median(p.get(span_name, 0.0) for p in pass_layers)
                for span_name in {n for p in pass_layers for n in p}
            }
            metrics = {f"{n}_s": v for n, v in layers.items() if n != "pipeline"}
            metrics.update(
                {
                    f"{n}_s": v
                    for n, v in rec.self_times_by_name(setup_span).items()
                    if n.startswith("core.")
                }
            )
            metrics.update(workload.layer_extras(rec, outcome, layers))
            metrics.update(result["sim"])
            metrics.update(
                {
                    "harness.trace_overhead_pct": _pct(
                        min(traced_walls) - wall_s, wall_s
                    ),
                    "harness.unattributed_pct": statistics.median(unattributed),
                    "harness.rep_spread_pct": _pct(max(walls) - min(walls), wall_s),
                    "harness.raw_wall_s": wall_s,
                    "harness.probe_ms": statistics.median(probes) * 1e3,
                    "harness.rss_after_setup_mb": rss_after_setup_mb,
                    "harness.loadavg_1m": loadavg_1m,
                }
            )
            result["layers"] = metrics
            rec.dump_jsonl(out_dir / f"{name}.spans.jsonl")
        return result
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
