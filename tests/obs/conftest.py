"""Fixtures for the observability suite.

Trace *shapes* differ by loop: the scalar loop records per-attempt spans
live, the columnar loop reconstructs coarse trees post hoc.  A traced run
takes the scalar loop when it has a fault schedule or a control plane; a
test that wants per-attempt trees for any other run (an autoscaled one
included) drains it inside ``tests/oracle/scalar.py``'s ``scalar_loop()``.
"""

import pytest

from repro.service.simulation.scenarios import scenario_measurements


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()
