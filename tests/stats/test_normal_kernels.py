"""The normal-distribution kernels the package calls, and what it imports.

``repro`` computes the standard normal CDF and quantile with
``scipy.special.ndtr`` / ``ndtri`` rather than ``scipy.stats.norm``, whose
``cdf`` / ``ppf`` at loc 0, scale 1 delegate to those same kernels.  These
tests hold the two bit for bit on every input class the package can feed
them, and hold the import graph to what the swap bought: no SciPy module
on the serving path, no ``scipy.stats`` anywhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import repro.datasets.difficulty as difficulty
import repro.vision.profiles as profiles
from repro.service import measure_ic_service
from repro.stats.confidence import normal_quantile

SRC = Path(__file__).resolve().parents[2] / "src"

_TINY = np.finfo(float).tiny
_SPECIAL = np.array(
    [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300,
     5e-324, -5e-324, _TINY / 2.0, -_TINY / 2.0, _TINY, 1.0 - 2.0**-53,
     0.5, 1.5, -0.5]
)


def _assert_bit_identical(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours, theirs, equal_nan=True)
    # NaN payloads aside, the bytes agree too (this is what sees -0.0).
    finite = ~np.isnan(ours)
    assert ours[finite].tobytes() == theirs[finite].tobytes()


@pytest.fixture(scope="module")
def table_inputs():
    """Every argument the table synthesis hands the two kernels."""
    seen = {"ndtr": [], "ndtri": []}

    def recording(name, kernel):
        def wrapper(x):
            seen[name].append(np.ravel(np.asarray(x, dtype=float)).copy())
            return kernel(x)

        return wrapper

    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(profiles, "ndtr", recording("ndtr", ndtr))
        patch.setattr(difficulty, "ndtri", recording("ndtri", ndtri))
        measure_ic_service(4000, seed=2012)
    finally:
        patch.undo()
    return {name: np.concatenate(arrays) for name, arrays in seen.items()}


class TestBitIdentity:
    def test_cdf_on_special_values_and_a_dense_sweep(self):
        grid = np.concatenate([_SPECIAL, np.linspace(-40.0, 40.0, 200_001)])
        _assert_bit_identical(ndtr(grid), norm.cdf(grid))

    def test_ppf_on_special_values_and_a_dense_sweep(self):
        grid = np.concatenate(
            [
                _SPECIAL,
                np.linspace(0.0, 1.0, 200_001),
                [0.9, 0.95, 0.99, 0.995, 0.999, 0.9999],
            ]
        )
        _assert_bit_identical(ndtri(grid), norm.ppf(grid))

    def test_table_synthesis_inputs(self, table_inputs):
        margins = table_inputs["ndtr"]
        assert margins.size == 5 * 4000  # one margin per CPU version and request
        _assert_bit_identical(ndtr(margins), norm.cdf(margins))
        quantiles = table_inputs["ndtri"]
        assert quantiles.size == 5
        _assert_bit_identical(ndtri(quantiles), norm.ppf(quantiles))

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.995, 0.999])
    def test_normal_quantile(self, confidence):
        assert normal_quantile(confidence) == float(norm.ppf(confidence))


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


class TestImportHygiene:
    def test_serving_path_loads_no_scipy(self):
        out = _fresh_interpreter(
            "import sys\n"
            "import repro, repro.obs\n"
            "import repro.service.gateway, repro.service.simulation\n"
            "import repro.service.regions, repro.service.control\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert out == "[]"

    def test_table_synthesis_loads_no_scipy_stats(self):
        out = _fresh_interpreter(
            "import sys\n"
            "from repro.service import measure_ic_service\n"
            "measure_ic_service(200, seed=2012)\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
        )
        assert out == "True False"
