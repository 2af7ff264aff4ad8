"""Architecture rules of the repository, checked by the tier-1 run.

Each test states one rule about what the package may contain or import.
Import rules read the parsed modules, not their text, so a comment cannot
trip one and an aliased or relative import cannot slip past one; they run
once per module under ``src/``, so a failure names the module.  The rules
about retired names search the same files for the same patterns as the
``! grep`` steps of the CI workflow they replaced, so they are exactly as
strict; each was shown to fail on the tree just before the change that
set up its rule, and the leaf-module rule on a copy with an import of
``repro`` planted in each leaf.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The from-scratch NumPy CNN stack and its synthetic image dataset.  The
#: image-classification service is the calibrated profiles of
#: ``repro.vision.profiles``; nothing may bring a second substrate back.
RETIRED_MODULES = frozenset(
    {
        "repro.vision.layers",
        "repro.vision.network",
        "repro.vision.model_zoo",
        "repro.vision.training",
        "repro.vision.classifier",
        "repro.datasets.imagenet",
    }
)

#: Modules every layer imports, so they import no ``repro`` module: the
#: behaviour contract and the validation vocabulary.
LEAF_MODULES = frozenset({"repro.contract", "repro.checks"})

#: The normal CDF / quantile are in-repo Cephes ports
#: (``repro.stats.normal``); SciPy is a test-only oracle, so no module of
#: the package may load it.
TEST_ONLY_PACKAGES = frozenset({"scipy"})


#: The scalar reference loop the differential tests hold ``drain()`` to.
SCALAR_LOOP = "tests/oracle/scalar_loop.py"


def _modules() -> Iterator[Tuple[str, Path, ast.Module]]:
    """Every module under ``src/``: its dotted name, path and tree."""
    for path in sorted(SRC.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts), path, ast.parse(path.read_text(), str(path))


MODULES = list(_modules())


def _imported(module: str, path: Path, tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Each absolute name an import statement of a module may load.

    ``from package import name`` yields both ``package`` and
    ``package.name``, since ``name`` may be a submodule; relative imports
    are resolved against the module's own package.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _within(name: str, packages: Iterable[str]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


@pytest.mark.parametrize(
    "module, path, tree", MODULES, ids=[module for module, _, _ in MODULES]
)
def test_module_imports_keep_the_layer_rules(module, path, tree):
    offenders = []
    for line, name in _imported(module, path, tree):
        if _within(name, RETIRED_MODULES):
            offenders.append(f"{line}: imports the retired CNN substrate {name}")
        if _within(name, TEST_ONLY_PACKAGES):
            offenders.append(f"{line}: imports the test-only package {name}")
        if module in LEAF_MODULES and _within(name, ["repro"]):
            offenders.append(f"{line}: a leaf module imports {name}")
    assert not offenders, f"{path.relative_to(ROOT)}\n" + "\n".join(offenders)


def test_vision_holds_only_the_calibrated_profiles():
    vision = SRC / "repro" / "vision"
    entries = {p.name for p in vision.iterdir() if p.name != "__pycache__"}
    assert entries == {"__init__.py", "profiles.py"}


def _files(roots: Iterable[str]) -> Iterator[Path]:
    """The files ``grep -r`` reads under each root: a directory, a file or a glob."""
    for root in roots:
        for match in sorted(ROOT.glob(root)):
            if match.is_dir():
                yield from (
                    p for p in sorted(match.rglob("*"))
                    if p.is_file() and "__pycache__" not in p.parts
                )
            else:
                yield match


def _matches(pattern: str, roots: Iterable[str]) -> List[str]:
    """Each ``path:line: text`` under ``roots`` that ``pattern`` matches."""
    regex = re.compile(pattern)
    found = []
    for path in _files(roots):
        try:
            lines = path.read_text().splitlines()
        except UnicodeDecodeError:
            continue
        found.extend(
            f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
            for n, line in enumerate(lines, 1)
            if regex.search(line)
        )
    return found


def test_reports_keep_one_backing_store():
    # Every report is RecordColumns: no list-backed fork, no report that
    # may have no columns.
    assert not _matches(r"columns is (not )?None|NumericColumns", ["src"])


def test_drains_keep_one_door():
    # One submission store, one validation pass, one fallback channel.
    assert not _matches(
        r"ColumnarFallback|self\._bulk|_submission_columns|def from_columns",
        ["src"],
    )


def test_region_plans_stay_columns():
    # A shard submits a region plan's columns as rows
    # (ServingSimulator.submit_rows): no per-request object on the way.
    assert not _matches(
        r"ServiceRequest\(|submit_batch\(", ["src/repro/service/regions"]
    )


def test_refits_are_lookups():
    # The policy adaptor walks a tolerance ladder built once on the whole
    # table, so a refit reads no rows and telemetry carries no payloads.
    assert not _matches(
        r"_row_of|\.subset\(|\.payloads\b", ["src/repro/service/control"]
    )


def test_one_engine_decision():
    # drain() runs one loop: no engine option and no environment
    # override.  The character classes keep this file from
    # matching its own pattern, since the rule also reads tests/.
    assert not _matches(
        r"REPRO_SIM_ENGIN[E]|resolve_engin[e]|sim_engine_matri[x]",
        ["src", "tests", "benchmarks/*.py", "pytest.ini"],
    )


def test_one_node_selection_rule():
    # Join-shortest-queue is the only within-pool rule: no selection option.
    assert not _matches(
        r"RoundRobinPolicy|LeastBusyPolicy|JoinShortestQueuePolicy"
        r"|selection_policy|_SUPPORTED_POLICIES",
        ["src", "benchmarks/*.py", "examples"],
    )


def test_report_digests_hash_columns():
    # The v1 text renderer of the report digest lives in tests/oracle/ only.
    assert not _matches(
        r"_column_digest_rows|_digest_flags|_DIGEST_CHUNK_ROWS", ["src"]
    )


def test_unvaried_knobs_stay_constants():
    # Thresholds no caller varies are repro.contract constants, not options.
    assert not _matches(
        r"warn_ratio|ewma_alpha|rollback_margin|base_tolerance|priority_floor"
        r"|default_priority|saturation_factor|slo_window_s|slo_tick_s"
        r"|min_percentile_samples",
        ["src", "benchmarks/*.py", "examples"],
    )


def test_one_validation_vocabulary():
    # Every input constructor validates through repro.checks: no private
    # float checker and no per-bound NaN reasoning.
    assert not _matches(
        r"def _require_(finite|integer|timestamp|window|rate|node_index)\b"
        r"|NaN fails",
        ["src"],
    )


def test_one_owner_fails_completions():
    # Which completions fail is decided by faults.CompletionFaults for both
    # loops, and a herd is its own arrival transform: no scalar-only fault
    # list, no loop-private failure rule, no arrival wrapper.
    assert not _matches(
        r"ThunderingHerdArrivals|_SCALAR_FAULTS|_fault_eating_completion",
        ["src", SCALAR_LOOP],
    )


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(), str(path))
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_drain_runs_one_loop():
    # Nothing chooses the engine, a trace recorder included: drain() calls
    # run_columnar once and inside no branch, nothing under src/ names an
    # eligibility gate, and nothing sets a fallback reason on an object.
    drain = _function(SRC / "repro/service/simulation/engine.py", "drain")
    calls = [
        node
        for node in ast.walk(drain)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "run_columnar"
    ]
    assert len(calls) == 1, ast.unparse(drain)
    branches = (ast.If, ast.IfExp, ast.Match, ast.Try, ast.BoolOp, ast.For, ast.While)
    for node in ast.walk(drain):
        if isinstance(node, branches):
            assert calls[0] not in list(ast.walk(node)), ast.unparse(node)
    assert not _matches(r"columnar_ineligibility", ["src"])
    assigned = [
        f"{name}:{node.lineno}"
        for name, _, tree in MODULES
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if getattr(target, "attr", None) == "fallback_reason"
    ]
    assert not assigned, assigned


def test_one_owner_scales_pools():
    # Every scaling decision is autoscaler.PoolScaling's, for both loops:
    # the scalar loop only actuates, and no other module computes a
    # utilization.
    assert not _matches(
        r"_last_busy|reason_for|\.decide\(",
        ["src/repro/service/simulation/engine.py", SCALAR_LOOP],
    )
    computed = _matches(r"\butilization\s*=", ["src"])
    assert computed and all(
        line.startswith("src/repro/service/simulation/autoscaler.py:")
        for line in computed
    ), computed


def test_rule_generator_keeps_no_scalar_reference():
    # The rule generator bootstraps through its outcome matrix alone: the
    # per-trial reference lives in tests/oracle/ (and no function of src/
    # is kept only for tests to compare against, see the next rule).
    assert not _matches(
        r"def (bootstrap_configuration|_bootstrap_scalar|subsample_indices"
        r"|spread_is_confident|is_satisfied|all_satisfied|trial_metrics)\("
        r"|repro\.core\.simulator|class TierSimulation",
        ["src"],
    )


def test_one_event_loop_in_src():
    # drain() runs the columnar loop and its scalar reference lives in
    # tests/oracle/scalar_loop.py: the reach ledger keeps no function for
    # tests to compare against, and no scalar event loop, per-request
    # state object or loop clock is left under src/.
    assert not _matches(r"^\S+\s+oracle\b", ["tests/reach/LEDGER"])
    assert not _matches(
        r"class EventLoop|def _run_scalar\(|_InFlight|_RunningBatch|self\._loop\b",
        ["src"],
    )


def test_a_checked_run_takes_the_stepwise_machine():
    # An invariant checker is one more reason to run the stepwise machine,
    # whose handlers call every checker hook: no flag turns the fast
    # deliveries off for a checker, and neither fast delivery feeds one.
    columnar = SRC / "repro/service/simulation/columnar.py"
    loop = _function(columnar, "run_columnar")
    bound = {
        node.id
        for node in ast.walk(loop)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    } | {
        node.name for node in ast.walk(loop) if isinstance(node, ast.FunctionDef)
    }
    assert not bound & {"slow", "emit", "inline_single"}, bound
    for name in ("deliver", "enqueue_accurate"):
        helper = _function(columnar, name)
        named = {
            node.id for node in ast.walk(helper) if isinstance(node, ast.Name)
        }
        assert "checker" not in named, ast.unparse(helper)


def test_no_attempt_outlives_its_request():
    # A request resolves only once no other leg can answer: no detached
    # attempt, no orphan completion, in either loop or the invariant
    # checker.
    assert not _matches(
        r'on_attempt_detached|on_orphan_finished|"detached"', ["src", SCALAR_LOOP]
    )


def test_a_request_resolves_one_way():
    # Resolving a request touches none of its legs: attempt_failed closes
    # the failing leg and fails a request only when no other leg is
    # viable, and the end-of-run resolution drops parked jobs first.  So
    # no resolve spares a leg or names an outcome to cancel the rest with.
    assert not _matches(r"exclude_version|_abandon_outstanding", ["src", SCALAR_LOOP])
    scalar = (SCALAR_LOOP, None, ast.parse((ROOT / SCALAR_LOOP).read_text()))
    resolves = [
        f"{name}:{node.lineno}: {node.name}({ast.unparse(node.args)})"
        for name, _, tree in [*MODULES, scalar]
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("resolve", "_finalize_failed")
        and {"exclude", "outcome"}
        & {arg.arg for arg in (*node.args.args, *node.args.kwonlyargs)}
    ]
    assert not resolves, resolves


#: What a serial run does end to end: a fixed-configuration load test and
#: its summary, a trace exported and loaded back, a serial multi-region
#: run and its summary.
_SERIAL_RUN = """
import os, sys, tempfile
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy
from repro.obs import TraceCollector
from repro.service.regions import MultiRegionSpec, RegionSpec, run_multi_region
from repro.service.simulation import PoissonArrivals, ScenarioSpec, run_scenario
from repro.service.simulation.scenarios import scenario_measurements

toy = scenario_measurements()
spec = ScenarioSpec(
    name="fixed", arrivals=PoissonArrivals(4.0), n_requests=60,
    pools={"fast": 1, "slow": 1},
    configuration=EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6)),
)
collector = TraceCollector()
run_scenario(spec, toy, trace=collector).summary()
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.jsonl")
    collector.export_jsonl(path)
    TraceCollector.load_jsonl(path)
regions = (RegionSpec(name="us", scenario=spec), RegionSpec(name="eu", scenario=spec))
multi = MultiRegionSpec(name="two", regions=regions, link_latency_s=0.1, seed=3)
run_multi_region(multi, toy).summary()
print(sorted(m for m in ("numpy.ma", "multiprocessing", "concurrent.futures")
             if m in sys.modules))
"""


def test_a_serial_run_loads_no_masked_arrays_or_process_pool():
    # numpy.ma (1.25 MiB, loaded by np.percentile and by a bare
    # np.unique) and the process pool (1.86 MiB, needed only by
    # run_multi_region(parallel=)) are memory no serial run uses.
    done = subprocess.run(
        [sys.executable, "-c", _SERIAL_RUN],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_one_percentile_rule():
    # Every percentile is stats.descriptive's rule (NumPy's linear one,
    # spelled out), so no module calls np.percentile or np.quantile.
    names = {"percentile", "quantile", "nanpercentile", "nanquantile"}
    calls = [
        f"{module}:{node.lineno}"
        for module, _, tree in MODULES
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and names & {alias.name for alias in node.names}
        )
    ]
    assert not calls, calls
