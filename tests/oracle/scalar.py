"""The scalar event loop as a test oracle, reached without an engine knob.

``ServingSimulator.drain()`` always calls ``run_columnar``.  The
differential, door and trace tests — and the ``"legacy"`` leg of the
simulator suites' loop matrix (``tests/conftest.py``) — need the scalar
loop of ``oracle/scalar_loop.py`` on the same runs; :func:`scalar_loop`
gets it by putting :func:`run_scalar` in the place of the
``run_columnar`` name ``drain()`` calls (the report's
``fallback_reason`` reads ``"scalar oracle"``), and :func:`default_loop`
restores the real loop inside such a block.  Nothing in ``src/`` knows
this seam exists.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

import repro.service.simulation.engine as engine
from oracle.scalar_loop import ScalarLoop

#: The ``fallback_reason`` of every run drained under :func:`scalar_loop`.
REASON = "scalar oracle"

#: The real loop, captured before any test patches it.
_RUN_COLUMNAR = engine.run_columnar


def run_scalar(sim, *args, **kwargs):
    """``run_columnar``'s signature, drained on the scalar loop.  The
    loop's state stays on the simulator as ``sim.oracle_loop`` (its
    clock is ``sim.oracle_loop._loop.now``), even when the run dies."""
    sim.oracle_loop = ScalarLoop(sim)
    report = sim.oracle_loop.run(*args, **kwargs)
    report.fallback_reason = REASON
    return report


@contextlib.contextmanager
def scalar_loop() -> Iterator[None]:
    """Every drain inside the block runs the scalar event loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_columnar", run_scalar)
        yield


@contextlib.contextmanager
def default_loop() -> Iterator[None]:
    """Every drain inside the block runs the loop a user's run does, even
    inside a :func:`scalar_loop` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_columnar", _RUN_COLUMNAR)
        yield


def loop(name: str):
    """The context a test parametrised over ``"legacy"`` / ``"columnar"``
    drains in: :func:`scalar_loop` for the oracle, :func:`default_loop`
    otherwise."""
    return scalar_loop() if name == "legacy" else default_loop()


def outcome(name: str):
    """``(engine_used, fallback_reason)`` of a run drained under
    ``loop(name)``."""
    return ("legacy", REASON) if name == "legacy" else ("columnar", None)
