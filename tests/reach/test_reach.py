"""The reach audit's machinery on small inputs (no entry point is traced).

``reach.py`` itself runs for minutes; these checks pin the parts it is
built from — naming functions the way the ledger does, deciding which
are unreached, diffing against the ledger, and the call tracer — so a
change to any of them fails here in seconds.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import reach

MODULE = '''\
def top():
    def inner():
        pass
    return inner


class Box:
    @property
    @abc.abstractmethod
    def decorated(self):
        pass

    class Lid:
        def close(self):
            pass
'''


@pytest.fixture()
def tree(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("def init_helper():\n    pass\n")
    (src / "pkg" / "mod.py").write_text(MODULE)
    return src


def _by_name(src):
    return {f.name: f for f in reach.functions(src)}


# ---------------------------------------------------------------- naming
def test_module_names_drop_init_and_use_dots(tree):
    assert set(_by_name(tree)) == {
        "pkg:init_helper",
        "pkg.mod:top",
        "pkg.mod:top.<locals>.inner",
        "pkg.mod:Box.decorated",
        "pkg.mod:Box.Lid.close",
    }


def test_nested_functions_name_their_parent_and_methods_do_not(tree):
    found = _by_name(tree)
    assert found["pkg.mod:top.<locals>.inner"].parent == "pkg.mod:top"
    assert found["pkg.mod:top"].parent is None
    assert found["pkg.mod:Box.Lid.close"].parent is None


def test_first_line_is_the_first_decorator(tree):
    """``co_firstlineno`` of a decorated function is its first decorator,
    so that is the line a hit must match."""
    decorated = _by_name(tree)["pkg.mod:Box.decorated"]
    assert decorated.first_line == MODULE.splitlines().index("    @property") + 1
    assert decorated.n_lines == 4


# -------------------------------------------------------------- unreached
def _hit(found, *names):
    return {(found[n].path, found[n].first_line) for n in names}


def test_a_function_nested_in_an_unreached_one_is_covered_by_it(tree):
    found = _by_name(tree)
    missing = reach.unreached(list(found.values()), _hit(found, "pkg:init_helper"))
    assert "pkg.mod:top" in missing
    assert "pkg.mod:top.<locals>.inner" not in missing


def test_a_function_nested_in_a_reached_one_is_listed(tree):
    found = _by_name(tree)
    missing = reach.unreached(list(found.values()), _hit(found, "pkg.mod:top"))
    assert "pkg.mod:top.<locals>.inner" in missing
    assert "pkg.mod:top" not in missing


# ------------------------------------------------------------------ judge
def _judge(tree, reached, ledger):
    found = _by_name(tree)
    return reach.judge(list(found.values()), _hit(found, *reached), ledger)


EVERYTHING_BUT_CLOSE = (
    "pkg:init_helper",
    "pkg.mod:top",
    "pkg.mod:top.<locals>.inner",
    "pkg.mod:Box.decorated",
)


def test_a_ledgered_unreached_function_is_no_problem(tree):
    ledger = {"pkg.mod:Box.Lid.close": "protocol"}
    assert _judge(tree, EVERYTHING_BUT_CLOSE, ledger) == []


def test_an_unledgered_unreached_function_is_a_problem(tree):
    assert _judge(tree, EVERYTHING_BUT_CLOSE, {}) == [
        "unreached, no ledger line: pkg.mod:Box.Lid.close"
    ]


@pytest.mark.parametrize(
    "name,why",
    [
        ("pkg.mod:top", "now reached"),
        ("pkg.mod:gone", "no such function"),
        (
            "pkg.mod:top.<locals>.inner",
            "covered by its unreached parent pkg.mod:top",
        ),
    ],
    ids=["reached", "gone", "covered"],
)
def test_a_stale_ledger_line_is_a_problem(tree, name, why):
    reached = EVERYTHING_BUT_CLOSE if why == "now reached" else ("pkg:init_helper",)
    ledger = {"pkg.mod:Box.Lid.close": "guard", name: "guard"}
    if why != "now reached":
        ledger.update({"pkg.mod:top": "guard", "pkg.mod:Box.decorated": "guard"})
    assert _judge(tree, reached, ledger) == [f"stale ledger line ({why}): {name}"]


def test_a_reason_outside_the_closed_set_is_a_problem(tree):
    ledger = {"pkg.mod:Box.Lid.close": "unused"}
    (problem,) = _judge(tree, EVERYTHING_BUT_CLOSE, ledger)
    assert problem.startswith("pkg.mod:Box.Lid.close: reason 'unused'")


# ----------------------------------------------------------------- ledger
def test_ledger_comments_and_blank_lines_are_skipped():
    text = (
        "# header\n"
        "\n"
        "repro.a:f    guard\n"
        "  # indented comment\n"
        "repro.b:C.g api: docs/API.md\n"
    )
    assert reach.parse_ledger(text) == [
        (3, "repro.a:f", "guard"),
        (5, "repro.b:C.g", "api: docs/API.md"),
    ]


# ----------------------------------------------------------------- tracer
SCRIPT = """\
import threading

from repro.stats.descriptive import percentiles
from repro.stats.resampling import kfold_indices

percentiles([1.0, 2.0, 3.0], [50.0])
worker = threading.Thread(target=kfold_indices, args=(6, 3))
worker.start()
worker.join()
"""


def test_the_tracer_records_src_functions_entered_on_any_thread(tmp_path):
    script = tmp_path / "entry.py"
    script.write_text(SCRIPT)
    out = tmp_path / "hits.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(reach.SRC), str(reach.HERE)])
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, reach; reach.child(sys.argv[1:])",
            str(out),
            "path",
            str(script),
        ],
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0
    hits = {tuple(hit) for hit in json.loads(out.read_text())}
    assert all(path.startswith(str(reach.SRC)) for path, _ in hits)
    found = {f.name: f for f in reach.functions()}
    entered = {name for name, f in found.items() if (f.path, f.first_line) in hits}
    assert "repro.stats.descriptive:percentiles" in entered
    assert "repro.stats.resampling:kfold_indices" in entered  # on the worker
    # loaded with the package, never called
    assert "repro.stats.confidence:normal_quantile" in found
    assert "repro.stats.confidence:normal_quantile" not in entered


def test_the_tracer_passes_on_the_entry_points_exit_status(tmp_path):
    script = tmp_path / "fails.py"
    script.write_text(textwrap.dedent("""\
        import sys
        sys.exit(3)
    """))
    out = tmp_path / "hits.json"
    env = dict(os.environ, PYTHONPATH=str(reach.HERE))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, reach; reach.child(sys.argv[1:])",
         str(out), "path", str(script)],
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert done.returncode == 3
    assert json.loads(out.read_text()) == []
