"""Reach audit: which functions in ``src/`` no workload, bench or example runs.

    python tests/reach/reach.py

Runs every entry point in ``ENTRY_POINTS`` in its own subprocess under a
call tracer (``sys.settrace`` / ``threading.settrace``) that notes each code
object under ``src/`` that starts executing.  A function defined in ``src/``
that no entry point enters is *unreached*; one nested in an unreached
function is covered by its parent and not listed separately.  The unreached
set is diffed against ``LEDGER`` beside this file, one line per function::

    repro.service.cluster:ClusterDeployment.kill_node    guard

with the reason from a closed set (``REASONS``):

* ``guard``     — refuses or repairs a state the entry points never build
  (a validation error, an empty pool, a malformed input);
* ``protocol``  — part of an interface other code implements or calls
  through (a dunder, an abstract method, a backend or hook protocol);
* ``api: docs/<file>.md`` — public API documented in that file.

Exit status 1 if an unreached function has no ledger line, or a ledger
line names a function that is now reached, covered by its parent, or gone;
2 if an entry point itself fails (its coverage would be missing).
Working per function rather than per line means an edit elsewhere in a
file never breaks the check.  Region workers started with ``parallel=N``
run untraced; they run the same ``run_shard`` as the serial path.

The bench entry points run the paper-figure and load benches in full
(slow ones included) from a scratch copy of ``benchmarks/`` with an
empty ``results/``, so the artefacts they write never touch the
checkout and the measurement cache is cold on the first pass and warm on
the second, whatever the checkout's cache holds.  Expect a few minutes.
"""

from __future__ import annotations

import ast
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
LEDGER = HERE / "LEDGER"
REASONS = ("guard", "protocol")
API_REASON = re.compile(r"^api: (docs/[A-Za-z0-9_]+\.md)$")

#: (label, kind, target, argv).  ``kind`` is ``path`` (a script, run the way
#: ``python <script>`` runs it) or ``module`` (``python -m <module>``).  The
#: ``{tmp}`` / ``{bench}`` placeholders are filled in per run.
ENTRY_POINTS: List[Tuple[str, str, str, List[str]]] = [
    *(
        (
            f"e2e {workload} trace={trace}",
            "path",
            "benchmarks/e2e/run.py",
            ["--child", "--workload", workload, "--seconds", "0.3",
             "--trace", trace, "--out", "{tmp}"],
        )
        for workload in (
            "steady_fixed",
            "tiered_session",
            "chaos_control",
            "regions_failover",
            "traced_export",
        )
        for trace in ("0", "1")
    ),
    (
        "benches",
        "module",
        "pytest",
        ["{bench}", "-o", "python_files=bench_*.py", "-q", "-p", "no:cacheprovider"],
    ),
    # The first pass built and cached the ASR table; this one reads it.
    (
        "bench fig1, warm cache",
        "module",
        "pytest",
        ["{bench}/bench_fig1_version_tradeoff.py", "-q", "-p", "no:cacheprovider"],
    ),
    *(
        (f"example {name}", "path", f"examples/{name}", [])
        for name in (
            "asr_tolerance_tiers.py",
            "guarantee_audit.py",
            "live_image_service.py",
            "quickstart.py",
        )
    ),
    ("obs summarize", "module", "repro.obs.summarize", ["--smoke"]),
]


#: What the tracer records per code object entered: (file, first line).
Hits = Set[Tuple[str, int]]


class Function(NamedTuple):
    """One ``def`` in ``src/``, as the ledger names it."""

    name: str  # ``module:qualname``
    path: str
    first_line: int  # what ``co_firstlineno`` reads: the first decorator
    n_lines: int
    parent: Optional[str]  # enclosing function's name, if nested in one


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions(src: Path = SRC) -> Iterator[Function]:
    """Every function and method defined under ``src``, in file order."""
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        yield from _walk(tree, module, str(path), "", None)


def _walk(node, module, path, prefix, parent) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{module}:{prefix}{child.name}"
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield Function(name, path, first, child.end_lineno - first + 1, parent)
            inner = f"{prefix}{child.name}.<locals>."
            yield from _walk(child, module, path, inner, name)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, path, f"{prefix}{child.name}.", parent)
        else:
            yield from _walk(child, module, path, prefix, parent)


def parse_ledger(text: str) -> List[Tuple[int, str, str]]:
    """``(line number, function, reason)`` per entry; raises on bad syntax."""
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        reason = reason.strip()
        if ":" not in name or not reason:
            raise ValueError(
                f"LEDGER:{number}: expected '<module>:<qualname> <reason>'"
            )
        entries.append((number, name, reason))
    return entries


def reason_error(reason: str) -> Optional[str]:
    """Why ``reason`` is not from the closed set, or None if it is."""
    if reason in REASONS:
        return None
    match = API_REASON.match(reason)
    if match is None:
        return f"reason {reason!r} is not one of {REASONS} or 'api: docs/<f>.md'"
    if not (ROOT / match.group(1)).is_file():
        return f"{match.group(1)} does not exist"
    return None


# ---------------------------------------------------------------- the child


def child(argv: List[str]) -> None:
    """Run one entry point under the call tracer; write the hits to argv[0]."""
    out, kind, target, *args = argv
    prefix = str(SRC) + os.sep
    hits: Hits = set()
    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            if code.co_filename.startswith(prefix):
                hits.add((code.co_filename, code.co_firstlineno))
        return None

    status = 0
    sys.argv = [target, *args]
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, str(Path(target).resolve().parent))
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
        status = code if isinstance(code, int) else int(code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        Path(out).write_text(json.dumps(sorted(hits)), encoding="utf-8")
    sys.exit(status)


# --------------------------------------------------------------- the parent


def _bench_copy(tmp: Path) -> Path:
    """A scratch copy of the benches with an empty ``results/`` of its own."""
    copy = tmp / "checkout"
    shutil.copytree(
        ROOT / "benchmarks",
        copy / "benchmarks",
        ignore=shutil.ignore_patterns("e2e", "__pycache__"),
    )
    shutil.copy2(ROOT / "pytest.ini", copy / "pytest.ini")
    return copy


def _run(label, kind, target, args, tmp: Path, bench: Path) -> Optional[Hits]:
    """The ``(file, first line)`` hits of one entry point; None if it failed."""
    out = tmp / "hits.json"
    args = [a.format(tmp=tmp, bench=bench / "benchmarks") for a in args]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("REPRO_BENCH_SMOKE", None)
    command = [
        sys.executable,
        "-c",
        "import sys, reach; reach.child(sys.argv[1:])",
        str(out),
        kind,
        target,
        *args,
    ]
    cwd = bench if kind == "module" and target == "pytest" else ROOT
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    print(f"  {label:34s} exit {done.returncode}  {time.perf_counter() - t0:6.1f} s")
    if done.returncode != 0:
        return None
    return {tuple(hit) for hit in json.loads(out.read_text(encoding="utf-8"))}


def unreached(defined: List[Function], hits: Hits) -> Dict[str, Function]:
    """Unreached functions whose enclosing function, if any, was reached."""
    reached = {f.name for f in defined if (f.path, f.first_line) in hits}
    return {
        f.name: f
        for f in defined
        if f.name not in reached and (f.parent is None or f.parent in reached)
    }


def judge(
    defined: List[Function], hits: Hits, ledger: Dict[str, str]
) -> List[str]:
    """Every disagreement between the traced ``hits`` and the ledger."""
    found = unreached(defined, hits)
    by_name = {f.name: f for f in defined}
    problems = []
    for name in sorted(set(found) - set(ledger)):
        problems.append(f"unreached, no ledger line: {name}")
    for name in sorted(set(ledger) - set(found)):
        if name not in by_name:
            why = "no such function"
        elif (by_name[name].path, by_name[name].first_line) in hits:
            why = "now reached"
        else:
            why = f"covered by its unreached parent {by_name[name].parent}"
        problems.append(f"stale ledger line ({why}): {name}")
    for name, reason in sorted(ledger.items()):
        error = reason_error(reason)
        if error is not None:
            problems.append(f"{name}: {error}")
    return problems


def main() -> int:
    defined = list(functions())
    names = [f.name for f in defined]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        print("reach: functions defined twice under one name:", *duplicates, sep="\n  ")
        return 1
    hits: Hits = set()
    print(f"reach: tracing {len(ENTRY_POINTS)} entry points")
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp_name:
        tmp = Path(tmp_name)
        bench = _bench_copy(tmp)
        for label, kind, target, args in ENTRY_POINTS:
            ran = _run(label, kind, target, args, tmp, bench)
            if ran is None:
                print(f"reach: entry point {label!r} failed; nothing to judge")
                return 2
            hits |= ran
    entries = parse_ledger(LEDGER.read_text(encoding="utf-8"))
    ledger = {name: reason for _, name, reason in entries}
    problems = judge(defined, hits, ledger)
    found = unreached(defined, hits)
    lines = sum(f.n_lines for f in found.values())
    print(
        f"reach: {len(defined)} functions, {len(found)} unreached "
        f"({lines} lines), {len(ledger)} ledger lines"
    )
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
