"""Architecture rules of the repository, checked by the tier-1 run.

Each test states one rule about what the package may contain or import.
Import rules read the parsed modules, not their text, so a comment cannot
trip one and an aliased or relative import cannot slip past one; they run
once per module under ``src/``, so a failure names the module.  The rules
about retired names search the same files for the same patterns as the
matching fences of the CI workflow, so they are exactly as strict.
"""

from __future__ import annotations

import ast
import re
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
    # drain() picks its loop from the run alone: no engine option and no
    # environment override.  The character classes keep this file from
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
