"""Loop-matrix activation for the simulator service suite.

Every test in this directory runs on both loops via the root
``sim_loop`` fixture (the default path in the fast tier, the default
path + the scalar oracle in the full tier); no call site needs a
parameter.
"""

import pytest


@pytest.fixture(autouse=True)
def _sim_loop_matrix(sim_loop):
    return sim_loop
