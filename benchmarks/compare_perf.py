"""Perf-regression comparison for BENCH_PERF.json — point and longitudinal.

Nothing here times the serving stack: that is ``benchmarks/e2e/`` and its
own ``compare.py``.  Two modes share one metric registry and one
reporting format:

**Two-artefact mode**::

    git show HEAD:BENCH_PERF.json > /tmp/base.json
    python benchmarks/compare_perf.py /tmp/base.json BENCH_PERF.json

compares the working-tree file (after a full bench run) against the
committed one and prints relative deltas; values beyond the threshold
(default ±5 %, the advisory noise band the delta-rs benchmarking ADR
recommends for shared runners) are flagged ``ADVISORY``.  Two historical
bugs are fixed and pinned by ``tests/benchmarks/test_compare_perf.py``:

* a metric that is a dict in one artefact and a scalar in the other
  (a section gaining per-key breakdowns) is reported as an explicit
  ``schema changed`` row instead of crashing on ``set(old) & set(new)``;
* zero baselines are compared, not skipped — a metric like
  ``resilience.time_to_recover_s`` regressing from ``0.0`` is exactly
  the transition that must be loudest, and is reported as an explicit
  ``zero baseline`` row (only the division is guarded).

**History mode**::

    PYTHONPATH=src python benchmarks/compare_perf.py --against-history FRESH

scores ``FRESH`` — a ``BENCH_PERF.json`` or an end-to-end
``results.json`` — against the longitudinal history
(``results/bench_history.jsonl``, see ``benchmarks/history.py``): each
metric's fresh value is z-scored against the noise of the full-run
history entries, and the whole series is scanned for step changes with
the ``ConfidenceTest``-conditioned changepoint detector — the measured
noise history sets the bar, not a fixed band.

Both modes are advisory by default (exit 0); ``--strict`` exits non-zero
when a regression is flagged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional

_ROOT = Path(__file__).resolve().parent.parent

#: (section, metric, direction) triples compared, with direction: +1 means
#: larger is better (throughput), -1 means smaller is better (wall time).
#: The sections are ``history.SECTION_SOURCES``' (a registry test holds
#: the two, and ``BENCH_PERF.json``, to one set).  The ``control_plane``,
#: ``resilience`` and ``regions`` metrics are deterministic simulation
#: outputs, not timings: any delta at all is a behaviour change, so the
#: same advisory gate doubles as a behavioural drift detector.
METRICS = (
    ("rule_generator", "trials_per_s", +1),
    ("policy_evaluation", "rows_per_s", +1),
    ("control_plane", "goodput_rps", +1),
    ("control_plane", "p95_latency_s", -1),
    ("control_plane", "node_seconds", -1),
    ("resilience", "goodput_retention", +1),
    ("resilience", "p95_inflation", -1),
    ("resilience", "time_to_recover_s", -1),
    ("resilience", "retry_amplification", -1),
    ("regions", "goodput_rps", +1),
    ("regions", "availability", +1),
)

#: Minimum like-for-like history entries before a trend verdict is
#: attempted; below this the history rows are informational.
MIN_HISTORY = 5


@dataclass(frozen=True)
class Row:
    """One comparison verdict.

    Attributes:
        label: Dotted metric label (``section.metric[.key]``).
        old: Baseline value (``None`` for schema-change rows).
        new: Fresh value (``None`` for schema-change rows).
        delta: Relative delta (``None`` when undefined: schema changes
            and zero baselines).
        flagged: True when the row is an advisory regression.
        note: Human-readable qualifier (schema change, zero baseline,
            trend statistics).
    """

    label: str
    old: Optional[float]
    new: Optional[float]
    delta: Optional[float]
    flagged: bool
    note: str = ""


@lru_cache(maxsize=None)
def _e2e_directions() -> dict:
    """``BENCHMARK.json``'s own ``better`` per end-to-end / layer metric."""
    manifest = json.loads((_ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: +1 if m["better"] == "higher" else -1
        for m in manifest["end_to_end"] + manifest["per_layer"]
    }


def _metric_direction(label: str) -> Optional[int]:
    """Direction for a flat ``section.metric[.key]`` label, if gated."""
    if label.startswith("e2e."):  # e2e.<workload>.<metric>
        return _e2e_directions().get(label.split(".", 2)[2])
    for section, metric, direction in METRICS:
        prefix = f"{section}.{metric}"
        if label == prefix or label.startswith(prefix + "."):
            return direction
    return None


def _compare_scalar(
    label: str,
    old: object,
    new: object,
    direction: int,
    threshold: float,
) -> Iterator[Row]:
    """Compare one scalar pair, guarding only the division by zero."""
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        yield Row(
            label,
            None,
            None,
            None,
            False,
            note=f"schema changed: {type(old).__name__} vs {type(new).__name__}"
            " — not comparable",
        )
        return
    old = float(old)
    new = float(new)
    if old == 0.0:
        if new == 0.0:
            yield Row(label, old, new, 0.0, False)
            return
        # The transition off a zero baseline is undefined as a relative
        # delta but is precisely the change that must be reported, not
        # skipped: flag it when it moves in the regression direction.
        adverse = direction * (new - old) < 0.0
        note = "zero baseline — relative delta undefined"
        yield Row(label, old, new, None, adverse, note=note)
        return
    delta = (new - old) / old
    yield Row(label, old, new, delta, direction * delta < -threshold)


def compare(baseline: dict, fresh: dict, threshold: float) -> Iterator[Row]:
    """Yield comparison :class:`Row`\\ s for every gated metric."""
    for section, metric, direction in METRICS:
        old = baseline.get(section, {}).get(metric)
        new = fresh.get(section, {}).get(metric)
        if old is None or new is None:
            continue
        label = f"{section}.{metric}"
        old_is_dict = isinstance(old, dict)
        new_is_dict = isinstance(new, dict)
        if old_is_dict != new_is_dict:
            shapes = (
                ("per-key dict" if old_is_dict else type(old).__name__),
                ("per-key dict" if new_is_dict else type(new).__name__),
            )
            yield Row(
                label,
                None,
                None,
                None,
                False,
                note=f"schema changed: {shapes[0]} -> {shapes[1]}"
                " — re-baseline to compare",
            )
            continue
        if old_is_dict:
            for key in sorted(set(old) & set(new)):
                yield from _compare_scalar(
                    f"{label}.{key}", old[key], new[key], direction, threshold
                )
            for key in sorted(set(old) - set(new)):
                yield Row(
                    f"{label}.{key}",
                    None,
                    None,
                    None,
                    False,
                    note="schema changed: key dropped from fresh artefact",
                )
            for key in sorted(set(new) - set(old)):
                yield Row(
                    f"{label}.{key}",
                    None,
                    None,
                    None,
                    False,
                    note="schema changed: key new in fresh artefact",
                )
            continue
        yield from _compare_scalar(label, old, new, direction, threshold)


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{value:,.4g}"


def _print_rows(rows) -> None:
    width = max((len(row.label) for row in rows), default=0)
    for row in rows:
        marker = "ADVISORY regression" if row.flagged else "ok"
        delta = f"{row.delta:+7.1%}" if row.delta is not None else "      —"
        note = f"  [{row.note}]" if row.note else ""
        print(
            f"{row.label:<{width}}  {_format_value(row.old):>14} -> "
            f"{_format_value(row.new):>14}  ({delta})  {marker}{note}"
        )


def _load_json(path: Path) -> Optional[dict]:
    if not path.exists():
        print(f"compare_perf: {path} not found; nothing to compare")
        return None
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# history mode (imported lazily so the classic two-artefact mode keeps
# working without PYTHONPATH=src)
# ----------------------------------------------------------------------
def _history_modules():
    try:
        import history
        from repro.stats.changepoint import detect_step, shift_zscore
        from repro.stats.confidence import ConfidenceTest, normal_quantile
    except ImportError as exc:  # pragma: no cover - environment guard
        raise SystemExit(
            f"compare_perf: history mode needs PYTHONPATH=src ({exc})"
        )
    return history, detect_step, shift_zscore, ConfidenceTest, normal_quantile


def _against_history(args) -> int:
    """Score a fresh artefact against the longitudinal history."""
    history, detect_step, shift_zscore, ConfidenceTest, normal_quantile = (
        _history_modules()
    )
    fresh = _load_json(args.fresh_artifact)
    if fresh is None:
        return 0
    test = ConfidenceTest(confidence=args.confidence)
    quantile = normal_quantile(test.confidence)
    flat_fresh = (
        history.e2e_metrics(fresh)
        if "workloads" in fresh
        else history.flatten_metrics(fresh)
    )
    # Full runs only: the smoke-tagged rows older benches appended are a
    # different measurement regime.
    entries = history.load_history(args.history, smoke=False)

    rows = []
    changepoints = {}
    any_series = False
    for label, value in sorted(flat_fresh.items()):
        direction = _metric_direction(label)
        if direction is None:
            continue
        series = history.metric_series(entries, label)
        if len(series) < MIN_HISTORY:
            rows.append(
                Row(
                    label,
                    None,
                    value,
                    None,
                    False,
                    note=f"insufficient history (n={len(series)} < "
                    f"{MIN_HISTORY}) — recording, not judging",
                )
            )
            continue
        any_series = True
        z = shift_zscore(series, value)
        mean = sum(series) / len(series)
        delta = (value - mean) / mean if mean else None
        flagged = direction * z < -quantile
        note = f"z={z:+.2f} vs {len(series)}-run history"
        rows.append(Row(label, mean, value, delta, flagged, note=note))
        step = detect_step(series + [value], test=test)
        if step is not None:
            changepoints[label] = step

    if not rows:
        print("compare_perf: no gated metrics found in fresh artefact")
        return 0
    print(
        f"compare_perf: fresh artefact vs history ({args.history}), "
        f"confidence {test.confidence:g} (|z| > {quantile:.2f} flags)"
    )
    _print_rows(rows)

    if changepoints:
        print("\nchangepoints detected over history + fresh run:")
        for label, step in sorted(changepoints.items()):
            rel = (
                f"{step.relative_shift:+.1%}"
                if math.isfinite(step.relative_shift)
                else "off zero baseline"
            )
            print(
                f"  {label}: {step.before_mean:,.4g} -> {step.after_mean:,.4g} "
                f"({rel}) at run {step.index}, z={step.zscore:+.2f}"
            )

    all_entries = history.load_history(args.history)
    for warning in history.machine_mismatch_warnings(
        all_entries, current=history.machine_fingerprint()
    ):
        print(f"\nWARN: {warning}")

    flagged_any = any(row.flagged for row in rows)
    if not any_series and not flagged_any:
        print(
            "\ncompare_perf: history too short for trend verdicts — "
            "entries will accumulate as runs append"
        )
    if flagged_any:
        print(
            "\ncompare_perf: at least one metric shifted past the "
            f"{test.confidence:g} confidence bar of its own history noise"
            + (" — strict mode fails" if args.strict else " — advisory only")
        )
        if args.strict:
            return 1
    return 0


def _two_artifacts(args) -> int:
    """The classic committed-baseline vs fresh-artefact comparison."""
    baseline = _load_json(args.baseline)
    fresh = _load_json(args.fresh) if baseline is not None else None
    if baseline is None or fresh is None:
        return 0
    rows = list(compare(baseline, fresh, args.threshold))
    if not rows:
        print("compare_perf: no comparable metrics found")
        return 0
    _print_rows(rows)
    if any(row.flagged for row in rows):
        print(
            f"\ncompare_perf: at least one metric regressed past "
            f"±{args.threshold:.0%} — advisory only; investigate before "
            "trusting the committed baseline"
        )
        if args.strict:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline",
        type=Path,
        nargs="?",
        help="baseline BENCH_PERF.json (two-artefact mode)",
    )
    parser.add_argument(
        "fresh",
        type=Path,
        nargs="?",
        help="freshly produced artefact (two-artefact mode)",
    )
    parser.add_argument(
        "--against-history",
        type=Path,
        dest="fresh_artifact",
        metavar="FRESH",
        help="score FRESH (a BENCH_PERF.json or an e2e results.json) "
        "against the longitudinal history instead of a baseline artefact",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        help="history JSONL (default: results/bench_history.jsonl)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.999,
        help="confidence level for the history-noise z test and the "
        "changepoint scan (default 0.999, the rule generator's setting)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="two-artefact advisory regression threshold as a fraction "
        "(default 0.05)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any metric regresses past the bar",
    )
    args = parser.parse_args(argv)

    if args.fresh_artifact is not None:
        if args.baseline is not None or args.fresh is not None:
            parser.error("history mode takes no positional artefacts")
        if args.history is None:
            args.history = _ROOT / "results" / "bench_history.jsonl"
        return _against_history(args)
    if args.baseline is None or args.fresh is None:
        parser.error(
            "two-artefact mode needs BASELINE and FRESH (or use --against-history)"
        )
    return _two_artifacts(args)


if __name__ == "__main__":
    sys.exit(main())
