"""Fixtures for the observability suite.

Trace *shapes* differ by run: one with a fault schedule or a control
plane is traced per attempt (the columnar loop feeds the recorder's
hooks), any other gets coarse trees reconstructed post hoc.  The scalar
loop records per attempt whatever the run, so a test that wants
per-attempt trees for any other run (an autoscaled one included) drains
it inside ``tests/oracle/scalar.py``'s ``scalar_loop()``.
"""

import pytest

from repro.service.simulation.scenarios import scenario_measurements


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()
