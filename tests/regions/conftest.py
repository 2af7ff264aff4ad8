"""Loop-matrix activation + shared fixtures for the regions suite.

Every test here runs on both loops via the root ``sim_loop`` fixture,
shards included (serial shards run in the test's process; forked
workers inherit the patched capability check).
"""

import pytest

from repro.service.simulation.scenarios import scenario_measurements


@pytest.fixture(autouse=True)
def _sim_loop_matrix(sim_loop):
    return sim_loop


@pytest.fixture(scope="module")
def toy():
    return scenario_measurements()
