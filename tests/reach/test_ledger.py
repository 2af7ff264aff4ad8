"""The reach ledger parses and names real functions (no tracing here).

``reach.py`` traces the entry points and diffs against ``LEDGER``; this
fast check only reads source: every line parses, names a function that
exists under ``src/``, appears once, and gives a reason from the closed
set.  A function renamed or deleted without its ledger line fails here,
long before the slow trace runs.
"""

import reach


def _entries():
    return reach.parse_ledger(reach.LEDGER.read_text(encoding="utf-8"))


def test_every_entry_names_an_existing_function():
    defined = {f.name for f in reach.functions()}
    missing = [name for _, name, _ in _entries() if name not in defined]
    assert not missing


def test_no_function_is_ledgered_twice():
    names = [name for _, name, _ in _entries()]
    assert len(names) == len(set(names))


def test_every_reason_is_from_the_closed_set():
    bad = {
        f"LEDGER:{number} {name}": reach.reason_error(reason)
        for number, name, reason in _entries()
        if reach.reason_error(reason) is not None
    }
    assert not bad


def test_function_names_are_unique_under_src():
    names = [f.name for f in reach.functions()]
    assert len(names) == len(set(names))


def test_a_malformed_line_is_refused():
    for text in ("repro.core.router", "repro.core.router:TierRouter.route"):
        try:
            reach.parse_ledger(text)
        except ValueError:
            continue
        raise AssertionError(f"parsed {text!r}")
    assert reach.reason_error("because") is not None
    assert reach.reason_error("api: docs/NOPE.md") is not None
    assert reach.reason_error("guard") is None
