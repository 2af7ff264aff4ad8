"""Append-only longitudinal history of benchmark runs — and their one writer.

``BENCH_PERF.json`` is a single point: the last full run of each
non-serving bench.  ``results/bench_history.jsonl`` is the trajectory: one
JSON line per run, with its flattened metrics plus the metadata needed to
interpret them later (commit, branch, machine fingerprint).  Entries are
facts about runs that happened, never rewritten, so trend analysis can
condition on the noise that was actually observed instead of a fixed
tolerance band.  Older rows may carry an ``"engine"`` key; the loader
ignores it.  Two producers:

* :func:`write_section` — the only writer of ``BENCH_PERF.json``, the
  ``results/bench_*.json`` detail artefacts and the benches' history
  rows.  A smoke run (``REPRO_BENCH_SMOKE=1``) prints and asserts but
  writes nothing, so CI leaves the tree clean.
* ``python benchmarks/history.py append <out>/results.json`` — one
  ``benchmarks/e2e/run.py`` result as a ``source="e2e"`` row labelled
  ``e2e.<workload>.<metric>`` (one per merged PR is what lets the trend
  checks ever reach ``compare_perf.MIN_HISTORY``).

Consumers: :func:`detect_changepoints` (per-metric step detection via
:func:`changepoint.detect_step`) and ``compare_perf.py
--against-history`` (a fresh ``BENCH_PERF.json`` or e2e ``results.json``
against the history's noise).

Schema (one JSON object per line)::

    {
      "schema": 1,
      "timestamp": 1754650000.0,        # unix seconds
      "source": "bench_perf",           # producing harness, "e2e" or "gateway"
      "commit": "de7073d...",           # git HEAD, "unknown" outside git
      "branch": "main",
      "machine": {"hostname": ..., "platform": ..., "python": ...,
                  "numpy": ..., "cpu_count": ...},
      "smoke": false,                   # true only on rows older than PR 23
      "metrics": {"e2e.steady_fixed.wall_s": 0.074, ...},
      "contract_version": 2             # repro.contract; absent on older rows
    }

Loading is strict: a malformed or truncated line raises
:class:`~repro.core.errors.HistoryFileError` naming the file and line.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.contract import CONTRACT_VERSION
from repro.core.errors import HistoryFileError
from repro.stats.confidence import ConfidenceTest

from changepoint import Changepoint, detect_step

__all__ = [
    "BENCH_PERF_PATH",
    "HISTORY_PATH",
    "RESULTS_DIR",
    "SCHEMA_VERSION",
    "SECTION_SOURCES",
    "HistoryEntry",
    "append_e2e",
    "append_entry",
    "detect_changepoints",
    "e2e_metrics",
    "entry_from_metrics",
    "flatten_metrics",
    "git_metadata",
    "load_history",
    "machine_fingerprint",
    "machine_mismatch_warnings",
    "metric_labels",
    "metric_series",
    "record_run",
    "write_section",
]

SCHEMA_VERSION = 1

_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = _ROOT / "results"
#: The committed single point: one section per non-serving bench.
BENCH_PERF_PATH = _ROOT / "BENCH_PERF.json"
#: The trajectory of record, next to the other committed artefacts.
HISTORY_PATH = RESULTS_DIR / "bench_history.jsonl"

#: Every ``BENCH_PERF.json`` section and the harness that writes it (the
#: ``source`` of its history rows, and the name of its ``results/``
#: detail artefact).  ``compare_perf.METRICS`` gates exactly these.
SECTION_SOURCES = {
    "rule_generator": "bench_perf",
    "policy_evaluation": "bench_perf",
    "control_plane": "bench_control_plane",
    "resilience": "bench_resilience",
    "regions": "bench_regions",
}

#: Keys that carry run *metadata* inside benchmark payload sections and
#: must not be flattened into metric values.
_NON_METRIC_KEYS = frozenset({"smoke"})


@dataclass(frozen=True)
class HistoryEntry:
    """One benchmark (or gateway-export) run in the longitudinal history.

    Attributes:
        timestamp: Unix seconds the entry was recorded.
        source: Producing harness (``bench_perf``, ``bench_resilience``,
            ``bench_control_plane``, ``gateway``, ...).
        commit: Git HEAD at record time (``"unknown"`` outside a repo).
        branch: Git branch at record time (``"unknown"`` outside a repo).
        machine: Machine fingerprint (hostname / platform / python /
            cpu count) — trend checks warn when a series mixes machines.
        smoke: Whether the run was a single-repetition smoke run.
        metrics: Flattened ``section.metric[.key]`` -> float values.
        schema: History schema version.
        contract_version: The :data:`repro.contract.CONTRACT_VERSION`
            the run's digests were computed under (``None`` on a row
            written before rows carried it).
    """

    timestamp: float
    source: str
    commit: str
    branch: str
    machine: Dict[str, object]
    smoke: bool
    metrics: Dict[str, float]
    schema: int = SCHEMA_VERSION
    contract_version: Optional[int] = None


def machine_fingerprint() -> Dict[str, object]:
    """The recording machine's identity, as stored in every entry."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_metadata(cwd: Optional[Path] = None) -> Dict[str, str]:
    """Current ``{"commit": ..., "branch": ...}``, tolerant of no-git.

    Args:
        cwd: Repository directory (defaults to this file's repo).
    """
    root = Path(cwd) if cwd is not None else _ROOT
    meta = {"commit": "unknown", "branch": "unknown"}
    for key, args in (
        ("commit", ("rev-parse", "HEAD")),
        ("branch", ("rev-parse", "--abbrev-ref", "HEAD")),
    ):
        try:
            out = subprocess.run(
                ("git", *args),
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if out.returncode == 0 and out.stdout.strip():
            meta[key] = out.stdout.strip()
    return meta


def flatten_metrics(payload: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a ``BENCH_PERF.json``-shaped payload into metric rows.

    Nested dicts become dotted labels (``section.metric.key``); numeric
    leaves are kept (bools and the ``smoke`` metadata tag are not);
    strings and other non-numeric leaves (e.g. ``rule_tables`` config
    ids, digests) are dropped.

    Args:
        payload: A section payload or a whole artefact.
        prefix: Label prefix for recursion.
    """
    flat: Dict[str, float] = {}
    for key, value in payload.items():
        if key in _NON_METRIC_KEYS:
            continue
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{label}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[label] = float(value)
    return flat


def entry_from_metrics(
    metrics: Dict[str, float],
    *,
    source: str,
    smoke: bool,
    timestamp: Optional[float] = None,
    machine: Optional[Dict[str, object]] = None,
    git: Optional[Dict[str, str]] = None,
) -> HistoryEntry:
    """Build a :class:`HistoryEntry` around already-flat metrics.

    Both producers (a bench's flattened section, an e2e result) come
    through here, so every history row carries the same run metadata.

    Args:
        metrics: Flattened ``label -> value`` metrics.
        source: Producing harness name.
        smoke: Smoke-run tag.
        timestamp: Record time (defaults to now).
        machine: Machine fingerprint override (defaults to this
            machine's).
        git: ``{"commit", "branch"}`` override (defaults to querying
            git).
    """
    git_meta = git if git is not None else git_metadata()
    return HistoryEntry(
        timestamp=float(time.time() if timestamp is None else timestamp),
        source=source,
        commit=git_meta.get("commit", "unknown"),
        branch=git_meta.get("branch", "unknown"),
        machine=machine if machine is not None else machine_fingerprint(),
        smoke=bool(smoke),
        metrics=dict(metrics),
        contract_version=CONTRACT_VERSION,
    )


def append_entry(entry: HistoryEntry, path: Path = HISTORY_PATH) -> Path:
    """Append one entry to the JSONL history (creating it if needed)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(asdict(entry), sort_keys=True) + "\n")
    return path


def record_run(
    payload: dict,
    *,
    source: str,
    smoke: bool,
    path: Path = HISTORY_PATH,
    **metadata,
) -> HistoryEntry:
    """Flatten one benchmark payload and append it to the history.

    Args:
        payload: The section payload (``{name: body}``) or a whole
            artefact.
        source: Producing harness name.
        smoke: Smoke-run tag.
        path: History file (the default is the committed trajectory).
        **metadata: Passed through to :func:`entry_from_metrics`.
    """
    entry = entry_from_metrics(
        flatten_metrics(payload), source=source, smoke=smoke, **metadata
    )
    append_entry(entry, path)
    return entry


def write_section(
    name: str,
    body: dict,
    *,
    smoke: bool,
    artifact: Optional[dict] = None,
    bench_perf: Path = BENCH_PERF_PATH,
    results_dir: Path = RESULTS_DIR,
    history_path: Path = HISTORY_PATH,
) -> None:
    """Write one bench's results: artefact, ``BENCH_PERF.json``, history row.

    A smoke run writes nothing — its single-repetition numbers are not
    trajectory points, and CI must leave the committed files as it found
    them.  A full run writes ``results/<source>.json`` (when the bench
    has detail rows beyond its headline), replaces its section of
    ``BENCH_PERF.json`` and appends one history row.

    Args:
        name: Section name, a key of :data:`SECTION_SOURCES`.
        body: The section's headline metrics.
        smoke: Whether this was a ``REPRO_BENCH_SMOKE`` run.
        artifact: Detail rows for ``results/<source>.json``, if any.
        bench_perf: The single-point file (tests point it elsewhere).
        results_dir: Directory of the detail artefact.
        history_path: The history file.
    """
    if smoke:
        return
    source = SECTION_SOURCES[name]
    if artifact is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{source}.json").write_text(
            json.dumps(artifact, indent=2, default=float)
        )
    payload = json.loads(bench_perf.read_text()) if bench_perf.exists() else {}
    payload[name] = body
    bench_perf.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    record_run({name: body}, source=source, smoke=False, path=history_path)


def e2e_metrics(results: dict) -> Dict[str, float]:
    """Flatten ``benchmarks/e2e/run.py``'s ``results.json`` into metric rows.

    Each workload's ``end_to_end`` and ``per_layer`` values become
    ``e2e.<workload>.<metric>`` (layer names keep their own dots).

    Raises:
        ValueError: For a ``--scale`` run, whose sizes are not the
            manifest's and whose numbers are therefore not comparable.
    """
    if results.get("scaled"):
        raise ValueError("a scaled run is not a point on the trajectory")
    return {
        f"e2e.{workload}.{metric}": float(entry["value"])
        for workload, result in results["workloads"].items()
        for group in ("end_to_end", "per_layer")
        for metric, entry in result[group].items()
    }


def append_e2e(results_path: Path, path: Path = HISTORY_PATH) -> HistoryEntry:
    """Append one ``results.json`` as a ``source="e2e"`` history row.

    The row's machine is the one the file says it ran on (NumPy version
    included), under this host's name.
    """
    results = json.loads(Path(results_path).read_text(encoding="utf-8"))
    ran_on = results["machine"]
    machine = machine_fingerprint()
    machine.update(
        platform=ran_on["platform"],
        python=ran_on["python"],
        numpy=ran_on["numpy"],
        cpu_count=ran_on["nproc"],
    )
    entry = entry_from_metrics(
        e2e_metrics(results), source="e2e", smoke=False, machine=machine
    )
    append_entry(entry, path)
    return entry


_REQUIRED = object()
_NUMBER = (int, float)


def _field(raw: dict, key: str, kinds: tuple, default=_REQUIRED):
    """``raw[key]`` (or ``default``, where given, for an absent key),
    refused unless it is one of ``kinds`` — a bool is not a number."""
    value = raw[key] if default is _REQUIRED else raw.get(key, default)
    if isinstance(value, bool) is not (bool in kinds) or not isinstance(value, kinds):
        raise TypeError(f"{key!r} is a {type(value).__name__}")
    return value


def _entry(raw) -> HistoryEntry:
    """A parsed line as the :class:`HistoryEntry` :func:`append_entry`
    wrote, every field's type checked; keys it does not know are ignored."""
    if not isinstance(raw, dict):
        raise TypeError(f"a line holds one JSON object, not a {type(raw).__name__}")
    metrics = _field(raw, "metrics", (dict,))
    return HistoryEntry(
        timestamp=float(_field(raw, "timestamp", _NUMBER)),
        source=_field(raw, "source", (str,)),
        commit=_field(raw, "commit", (str,), "unknown"),
        branch=_field(raw, "branch", (str,), "unknown"),
        machine=_field(raw, "machine", (dict,), {}),
        smoke=_field(raw, "smoke", (bool,), False),
        metrics={label: float(_field(metrics, label, _NUMBER)) for label in metrics},
        schema=_field(raw, "schema", (int,), SCHEMA_VERSION),
        contract_version=_field(raw, "contract_version", (int, type(None)), None),
    )


def load_history(
    path: Path = HISTORY_PATH,
    *,
    smoke: Optional[bool] = None,
    source: Optional[str] = None,
    branch: Optional[str] = None,
) -> List[HistoryEntry]:
    """Read the history, oldest first, with optional filters.

    Missing files and empty files load as an empty history and blank
    lines are ignored; anything else that is not a history entry raises.

    Args:
        path: History file.
        smoke: Keep only entries with this smoke tag (``None`` keeps
            all); benches stopped appending smoke rows in PR 23, the
            older ones are a different measurement regime.
        source: Keep only entries from this harness.
        branch: Keep only entries recorded on this branch.

    Raises:
        HistoryFileError: On a malformed or truncated line.
    """
    if not path.exists():
        return []
    entries: List[HistoryEntry] = []
    # Bytes, so that a line is what a text editor calls one (no splitting
    # on form feeds or U+2028) and an undecodable one names its number.
    for lineno, data in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = data.decode("utf-8")
            if not line.strip():
                continue
            entry = _entry(json.loads(line))
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise HistoryFileError(
                path, lineno, f"not a history entry ({type(exc).__name__}: {exc})"
            ) from None
        if smoke is not None and entry.smoke != smoke:
            continue
        if source is not None and entry.source != source:
            continue
        if branch is not None and entry.branch != branch:
            continue
        entries.append(entry)
    entries.sort(key=lambda e: e.timestamp)
    return entries


def metric_series(
    entries: Sequence[HistoryEntry], label: str
) -> List[float]:
    """One metric's values across the history, oldest first.

    Entries that never recorded the metric (older schema, different
    harness) are simply absent from the series — a schema addition must
    not read as a changepoint.
    """
    return [e.metrics[label] for e in entries if label in e.metrics]


def metric_labels(entries: Sequence[HistoryEntry]) -> List[str]:
    """Every metric label appearing anywhere in the history, sorted."""
    labels = set()
    for entry in entries:
        labels.update(entry.metrics)
    return sorted(labels)


def machine_mismatch_warnings(
    entries: Sequence[HistoryEntry],
    *,
    current: Optional[Dict[str, object]] = None,
) -> List[str]:
    """Human-readable warnings when a history mixes machines.

    Cross-machine timings are not one noise regime: a trend over them
    conflates hardware with regressions.  The check is advisory — the
    deterministic simulation metrics survive machine changes — but the
    warning must be visible.

    Args:
        entries: The (already filtered) history under analysis.
        current: Fingerprint of the machine running the analysis; when
            given, a mismatch against the history is reported too.
    """
    warnings: List[str] = []
    seen: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        key = json.dumps(entry.machine, sort_keys=True)
        seen.setdefault(key, entry.machine)
    if len(seen) > 1:
        names = sorted(
            str(machine.get("hostname", "unknown")) for machine in seen.values()
        )
        warnings.append(
            f"history mixes {len(seen)} machine fingerprints "
            f"({', '.join(names)}): timing trends conflate hardware with "
            "regressions; trust only the deterministic simulation metrics"
        )
    if current is not None and seen:
        current_key = json.dumps(dict(current), sort_keys=True)
        if current_key not in seen:
            warnings.append(
                "current machine "
                f"({current.get('hostname', 'unknown')}) has no entries in "
                "this history: fresh-run deltas include a hardware change"
            )
    return warnings


def detect_changepoints(
    entries: Sequence[HistoryEntry],
    *,
    labels: Optional[Iterable[str]] = None,
    test: Optional[ConfidenceTest] = None,
    min_segment: int = 5,
) -> Dict[str, Changepoint]:
    """Scan every metric series in a history for step changes.

    Args:
        entries: The (already filtered) history, oldest first.
        labels: Metric labels to scan (default: every label present).
        test: Confidence test supplying the significance level
            (default: the generator's 99.9 % setting).
        min_segment: Minimum runs on each side of a candidate step.

    Returns:
        ``label -> Changepoint`` for every metric whose series contains
        a significant step.  Metrics with too little history simply
        cannot flag (the detector returns ``None`` below
        ``2 * min_segment`` observations).
    """
    if test is None:
        test = ConfidenceTest()
    found: Dict[str, Changepoint] = {}
    for label in labels if labels is not None else metric_labels(entries):
        series = metric_series(entries, label)
        changepoint = detect_step(series, test=test, min_segment=min_segment)
        if changepoint is not None:
            found[label] = changepoint
    return found


def main(argv: Optional[Sequence[str]] = None, *, path: Path = HISTORY_PATH) -> int:
    """``history.py append <results.json>``: one e2e run joins the history."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2 or args[0] != "append":
        print("usage: history.py append <results.json>", file=sys.stderr)
        return 2
    try:
        entry = append_e2e(Path(args[1]), path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"history: {args[1]}: {exc!r}", file=sys.stderr)
        return 2
    print(f"history: appended {len(entry.metrics)} e2e metrics to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
