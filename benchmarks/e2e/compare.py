"""Compare two ``results.json`` files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of an A/A pair), B the
candidate.  Per workload and end-to-end metric it prints both values (the
run's estimate, a median of its samples), the bound from ``BENCHMARK.json``
and a verdict:

* ``worse`` / ``better`` — B's value differs from A's by more than the
  bound, in that direction;
* ``same`` — within the bound;
* ``unresolved`` — either side's own spread (quartile distance over
  median of its samples, when it has at least five) is wider than the
  bound, so the data cannot tell — unless every sample of one side beats
  every sample of the other.

``sim_*`` and every exact-count layer metric describe *what* the program
computed, not how fast: they must match exactly (``MISMATCH`` otherwise).
Exit code 1 on any ``worse``, ``unresolved`` or ``MISMATCH``; results
stamped ``scaled`` (self-test runs) are refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def is_exact(name: str, unit: str) -> bool:
    """Metrics that are a pure function of the seed."""
    return unit == "count" or name.startswith("sim_") or name == "simulation.columnar_share"


def spread(samples: Sequence[float]) -> float:
    """Quartile distance as a share of the median.

    The three set-ups of a run are too few for quartiles (one cold-cache
    set-up would read as a 40 % spread while the median ignores it), so
    fewer than five samples give no spread estimate: 0.
    """
    if len(samples) < 5:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(
    value_a: float,
    value_b: float,
    a: Sequence[float],
    b: Sequence[float],
    *,
    bound: float,
    better: str,
) -> str:
    """Judge the candidate (value and samples ``b``) against the base."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the candidate got worse, as a share of the base value.
    change = sign * (value_b - value_a) / value_a
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        if all(sign * y > sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base: dict, candidate: dict, manifest: dict) -> List[dict]:
    """One row per (workload, metric); see the module docstring."""
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        a, b = base["workloads"][workload], candidate["workloads"][workload]
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": a["end_to_end"][name]["value"],
                    "b": b["end_to_end"][name]["value"],
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a["end_to_end"][name]["value"],
                        b["end_to_end"][name]["value"],
                        a["samples"][name],
                        b["samples"][name],
                        bound=metric["bound"],
                        better=metric["better"],
                    ),
                }
            )
        for metric in manifest["per_layer"]:
            name = metric["name"]
            if not is_exact(name, metric["unit"]):
                continue
            va, vb = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": va,
                    "b": vb,
                    "bound": 0.0,
                    "verdict": "same" if va == vb else "MISMATCH",
                }
            )
        fa, fb = len(a["failed_checks"]), len(b["failed_checks"])
        rows.append(
            {
                "workload": workload,
                "metric": "failed checks",
                "a": fa,
                "b": fb,
                "bound": 0.0,
                "verdict": "same" if fa == fb == 0 else "MISMATCH",
            }
        )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if base.get("scaled") or candidate.get("scaled"):
        print("compare.py: refusing results from a --scale self-test run", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    rows = compare(base, candidate, manifest)
    bad = 0
    for row in rows:
        flagged = row["verdict"] in ("worse", "unresolved", "MISMATCH")
        bad += flagged
        if flagged or row["bound"] > 0.0:
            print(
                f"{row['workload']:18s} {row['metric']:30s} "
                f"{row['a']:>14.6g} {row['b']:>14.6g}  "
                f"bound {row['bound']:<5g} {row['verdict']}"
            )
    exact = sum(1 for r in rows if r["bound"] == 0.0)
    print(f"{exact} exact metrics compared; {bad} worse/unresolved/MISMATCH in total")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
