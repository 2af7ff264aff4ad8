"""End-to-end serving benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                      # every workload, both passes
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without it every workload runs both ways, a table of
every metric is printed and ``results.json`` is written to ``--out`` for
``compare.py``.

Each set-up happens in a fresh child process (``PYTHONHASHSEED=0``), so
``setup_s`` and ``peak_rss_mb`` are per workload; an untraced run makes
``CHILDREN`` set-ups and reports medians.  See README.md for the metric
glossary and the measurement protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"
DEFAULT_SEED = 11
#: Fresh set-ups per untraced run; setup_s and peak_rss_mb are their medians.
CHILDREN = 3
#: How a run's samples become the reported value: medians.  A wall_s sample
#: is one repetition's time over the calibration kernel's time beside it (see
#: harness.PROBE_REF_S), which takes the host's speed of the moment out.
ESTIMATORS = {
    "wall_s": statistics.median,
    "setup_s": statistics.median,
    "peak_rss_mb": statistics.median,
}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _child_command(name, seed, seconds, trace, scale, once_checks, out_dir) -> List[str]:
    return [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(int(trace)),
        "--scale",
        repr(scale),
        "--once-checks",
        str(int(once_checks)),
        "--out",
        str(out_dir),
    ]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The engine choice is part of what is measured: always the default.
    env.pop("REPRO_SIM_ENGINE", None)
    return env


def _spawn(command: List[str]) -> dict:
    done = subprocess.run(
        command, env=_child_env(), stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"benchmark child exited with code {done.returncode}: {' '.join(command)}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out_dir: Path = DEFAULT_OUT,
) -> dict:
    """Measure one workload in fresh child processes and aggregate.

    Returns the driver-facing result (``correct``/``attempted``/``failed``/
    ``metrics``) plus ``samples`` and ``children`` for ``compare.py`` and
    the self-tests.
    """
    manifest = load_manifest()
    n_children = 1 if trace else CHILDREN
    children = [
        _spawn(
            _child_command(
                name, seed, seconds / n_children, trace, scale, index == 0, out_dir
            )
        )
        for index in range(n_children)
    ]
    attempted = sum(c["attempted"] for c in children) + 1
    failed_checks = [n for c in children for n in c["failed_checks"]]
    first = children[0]
    if any((c["digest"], c["sim"]) != (first["digest"], first["sim"]) for c in children):
        failed_checks.append("digest and sim_* identical across set-ups")

    if trace:
        layers = dict(first["layers"])
        layers["failed_share"] = len(failed_checks) / attempted
        samples: Dict[str, List[float]] = {}
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
    else:
        samples = {
            "wall_s": [w for c in children for w in c["normalised_walls"]],
            "setup_s": [c["setup_s"] for c in children],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        }
        metrics = {
            m["name"]: {
                "value": ESTIMATORS[m["name"]](samples[m["name"]]),
                "unit": m["unit"],
            }
            for m in manifest["end_to_end"]
        }
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": len(failed_checks),
        "metrics": metrics,
        "failed_checks": failed_checks,
        "samples": samples,
        "scaled": scale != 1.0,
        "fallback_reasons": first["fallback_reasons"],
        "children": [
            {"pythonhashseed": c["pythonhashseed"], "reps": len(c["walls"])}
            for c in children
        ],
    }


def _print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        note = ""
        if metric == "simulation.columnar_share" and result["fallback_reasons"]:
            note = "   fallback: " + "; ".join(result["fallback_reasons"])
        print(f"{name:18s} {metric:32s} {entry['value']:>16.6g} {entry['unit']}{note}")
    for check in result["failed_checks"]:
        print(f"{name:18s} FAILED CHECK: {check}")
    print(
        f"{name:18s} checks: {result['attempted']} attempted, "
        f"{result['failed']} failed"
    )


def _driver_line(result: dict) -> str:
    return json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    )


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_all(seed: int, seconds: float, scale: float, out_dir: Path) -> int:
    """Every workload, untraced then traced; table + results.json."""
    manifest = load_manifest()
    results = {}
    for workload in manifest["workloads"]:
        name = workload["name"]
        untraced = run_workload(
            name, seed=seed, seconds=seconds, trace=False, scale=scale, out_dir=out_dir
        )
        _print_metrics(name, untraced)
        traced = run_workload(
            name, seed=seed, seconds=seconds, trace=True, scale=scale, out_dir=out_dir
        )
        _print_metrics(name, traced)
        results[name] = {
            "end_to_end": untraced["metrics"],
            "samples": untraced["samples"],
            "per_layer": traced["metrics"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed_checks": untraced["failed_checks"] + traced["failed_checks"],
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.json"
    path.write_text(
        json.dumps(
            {
                "seed": seed,
                "seconds": seconds,
                "scaled": scale != 1.0,
                "machine": _machine(),
                "workloads": results,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(f"wrote {path}")
    return 1 if any(r["failed_checks"] for r in results.values()) else 0


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="self-test only: shrink every workload; results are stamped "
        "scaled and refused by compare.py",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--once-checks", type=int, default=1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    entered_at = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "repro").is_dir() or not MANIFEST.is_file():
        print(
            f"run.py: need {SRC / 'repro'} and {MANIFEST}; the benchmark "
            "measures the program in src/ and cannot run without it",
            file=sys.stderr,
        )
        return 2
    seconds = (
        args.seconds if args.seconds is not None else load_manifest()["run_seconds"]
    )
    if args.child:
        from harness import measure

        result = measure(
            args.workload,
            seed=args.seed,
            seconds=seconds,
            trace=bool(args.trace),
            scale=args.scale,
            once_checks=bool(args.once_checks),
            out_dir=args.out,
            entered_at=entered_at,
        )
        print(json.dumps(result))
        return 0
    if args.workload is None:
        return run_all(args.seed, seconds, args.scale, args.out)
    names = [w["name"] for w in load_manifest()["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        scale=args.scale,
        out_dir=args.out,
    )
    _print_metrics(args.workload, result)
    print(_driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
