"""The scalar event loop as a test oracle, reached without an engine knob.

``ServingSimulator.drain()`` picks its loop from the run alone: the
columnar loop unless ``columnar_ineligibility`` names a capability it
lacks.  The differential, door and trace tests — and the ``"legacy"``
leg of the simulator suites' loop matrix (``tests/conftest.py``) — still
need the scalar loop on runs the columnar one could serve;
:func:`scalar_loop` gets it by making every run look ineligible
(``fallback_reason`` reads ``"scalar oracle"``), and
:func:`default_loop` restores the real check inside such a block.
Nothing in ``src/`` knows this seam exists.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

import repro.service.simulation.engine as engine

#: The ``fallback_reason`` of every run drained under :func:`scalar_loop`.
REASON = "scalar oracle"

#: The real capability check, captured before any test patches it.
_INELIGIBILITY = engine.columnar_ineligibility


@contextlib.contextmanager
def scalar_loop() -> Iterator[None]:
    """Every drain inside the block runs the scalar event loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "columnar_ineligibility", lambda *_: REASON)
        yield


@contextlib.contextmanager
def default_loop() -> Iterator[None]:
    """Every drain inside the block picks its loop as a user's run does,
    even inside a :func:`scalar_loop` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "columnar_ineligibility", _INELIGIBILITY)
        yield


def loop(name: str):
    """The context a test parametrised over ``"legacy"`` / ``"columnar"``
    drains in: :func:`scalar_loop` for the oracle, :func:`default_loop`
    otherwise."""
    return scalar_loop() if name == "legacy" else default_loop()


def outcome(name: str):
    """``(engine_used, fallback_reason)`` of a run the columnar loop can
    serve, drained under ``loop(name)``."""
    return ("legacy", REASON) if name == "legacy" else ("columnar", None)
