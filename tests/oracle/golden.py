"""Reading a golden digest file under the reproducibility contract.

A golden digest is only comparable under the contract version that
wrote it (:data:`repro.contract.CONTRACT_VERSION`); a file without a
``contract_version`` field predates the field and is version 1.  The
golden tests read every file through :func:`read_golden`, so a stale
golden fails with both versions named instead of as an unexplained
digest mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.contract import CONTRACT_VERSION


def read_golden(path: Path) -> dict:
    """The golden file at ``path``; ``AssertionError`` if it was written
    under another contract version."""
    golden = json.loads(Path(path).read_text())
    written = golden.get("contract_version", 1)
    assert written == CONTRACT_VERSION, (
        f"golden {Path(path).name} was written under contract version "
        f"{written}, this tree digests under version {CONTRACT_VERSION}: "
        "regenerate it with --update-golden and commit the old -> new "
        "table (see tests/service/golden/README.md)"
    )
    return golden
