"""The in-repo normal kernels against SciPy, and what the package imports.

``repro.stats.normal`` ports Cephes' ``ndtr`` / ``ndtri``, the routines
``scipy.special.ndtr`` / ``ndtri`` wrap, operation for operation.  SciPy
is a test-only oracle: these tests hold the port to it bit for bit
(bytes, so ``-0.0`` shows) on every input class the package can feed
the kernels, and hold the import graph to what the port bought: no
``scipy*`` module loaded anywhere the package runs, table synthesis and
rule generation included.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import repro.datasets.difficulty as difficulty
import repro.vision.profiles as profiles
from repro import contract
from repro.service import measure_ic_service
from repro.stats.confidence import normal_quantile
from repro.stats.normal import ndtr, ndtri

SRC = Path(__file__).resolve().parents[2] / "src"

_TINY = np.finfo(float).tiny
_SPECIAL = np.array(
    [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300,
     5e-324, -5e-324, _TINY / 2.0, -_TINY / 2.0, _TINY, 1.0 - 2.0**-53,
     0.5, 1.5, -0.5]
)

#: Where ``ndtr`` changes branch, in its argument: ``|a| / sqrt 2``
#: crosses 1/sqrt 2 (erf vs erfc), 1 (erfc's ``1 - erf``), 8 (the R / S
#: tail) and sqrt(MAXLOG) (underflow to 0 or 1).
_CDF_BRANCHES = (
    1.0,
    math.sqrt(2.0),
    8.0 * math.sqrt(2.0),
    math.sqrt(2.0 * 7.09782712893383996843e2),
)
#: Where ``ndtri`` changes branch: exp(-2) (central vs tail, both sides)
#: and exp(-32) (the P1 / P2 tail split).
_PPF_BRANCHES = (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0))


def _around(points, ulps=64):
    """Every float within ``ulps`` steps of each point, on both signs."""
    out = []
    for point in points:
        for sign in (1.0, -1.0):
            x = sign * point
            low = high = x
            for _ in range(ulps):
                low, high = np.nextafter(low, -np.inf), np.nextafter(high, np.inf)
                out += [low, high]
            out.append(x)
    return np.array(out)


def _ndtri_all(p):
    return np.array([ndtri(v) for v in np.asarray(p, dtype=float)])


def _assert_bit_identical(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    nan = np.isnan(ours)
    assert np.array_equal(nan, np.isnan(theirs))
    # NaN payloads aside, the bytes agree (this is what sees -0.0).
    mismatch = ours[~nan].view(np.int64) != theirs[~nan].view(np.int64)
    assert not mismatch.any(), (
        f"{int(mismatch.sum())} of {mismatch.size} differ, first at "
        f"{ours[~nan][mismatch][0]!r} vs {theirs[~nan][mismatch][0]!r}"
    )


def _record_table_inputs(n_requests, seeds, devices):
    """Every argument table synthesis hands the two kernels."""
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
        for seed in seeds:
            for device in devices:
                measure_ic_service(n_requests, device=device, seed=seed)
    finally:
        patch.undo()
    return {name: np.concatenate(arrays) for name, arrays in seen.items()}


@pytest.fixture(scope="module")
def table_inputs():
    return _record_table_inputs(
        20_000, seeds=(1, 2012, 2013), devices=("cpu", "gpu")
    )


_CONTRACT_CONFIDENCES = sorted(
    value for name, value in vars(contract).items() if name.endswith("_CONFIDENCE")
)
assert contract.RULEGEN_CONFIDENCE in _CONTRACT_CONFIDENCES
assert contract.REFIT_CONFIDENCE in _CONTRACT_CONFIDENCES


class TestBitIdentity:
    def test_cdf_on_special_values_and_a_dense_sweep(self):
        grid = np.concatenate(
            [_SPECIAL, np.linspace(-40.0, 40.0, 200_001), _around(_CDF_BRANCHES)]
        )
        _assert_bit_identical(ndtr(grid), special.ndtr(grid))

    def test_ppf_on_special_values_and_a_dense_sweep(self):
        grid = np.concatenate(
            [
                _SPECIAL,
                np.linspace(0.0, 1.0, 200_001),
                [1e-300, 1.0 - 1e-16, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999],
                np.geomspace(1e-300, 1e-1, 20_001),
                1.0 - np.geomspace(1e-16, 1e-1, 20_001),
                _around(_PPF_BRANCHES),
                # Near the P1 / P2 split at sqrt(-2 log y) = 8, where the
                # two tails differ in the last bit on about one input in ten.
                np.exp(-np.linspace(7.9, 8.1, 4001) ** 2 / 2.0),
            ]
        )
        _assert_bit_identical(_ndtri_all(grid), special.ndtri(grid))

    def test_cdf_keeps_the_argument_shape(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        _assert_bit_identical(ndtr(grid), special.ndtr(grid))
        assert isinstance(ndtr(0.3), np.floating)
        assert ndtr(0.3) == special.ndtr(0.3)
        assert ndtr(np.empty(0)).shape == (0,)

    def test_non_finite_arguments_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = ndtr(np.array([np.inf, -np.inf, np.nan]))
            ppf = [ndtri(v) for v in (np.inf, -np.inf, np.nan, -0.5, 1.5)]
        assert cdf[0] == 1.0 and cdf[1] == 0.0 and np.isnan(cdf[2])
        assert all(np.isnan(v) for v in ppf)

    def test_table_synthesis_inputs(self, table_inputs):
        margins = table_inputs["ndtr"]
        # One margin per version and request, for 3 seeds x 2 devices.
        assert margins.size == 6 * 5 * 20_000
        _assert_bit_identical(ndtr(margins), special.ndtr(margins))
        quantiles = table_inputs["ndtri"]
        assert quantiles.size == 6 * 5
        _assert_bit_identical(_ndtri_all(quantiles), special.ndtri(quantiles))

    @pytest.mark.parametrize(
        "confidence", _CONTRACT_CONFIDENCES + [0.9, 0.99, 0.995, 0.9999]
    )
    def test_normal_quantile(self, confidence):
        ours = normal_quantile(confidence)
        assert type(ours) is float
        _assert_bit_identical(ours, special.ndtri(confidence))


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

    def test_table_synthesis_and_rule_generation_load_no_scipy(self):
        out = _fresh_interpreter(
            "import sys\n"
            "from repro.core import RoutingRuleGenerator, enumerate_configurations\n"
            "from repro.service import measure_ic_service\n"
            "from repro.stats import normal_quantile\n"
            "m = measure_ic_service(200, seed=2012)\n"
            "configs = enumerate_configurations(m, thresholds=(0.5,))[:4]\n"
            "RoutingRuleGenerator(m, configs, min_trials=2, max_trials=4)\n"
            "normal_quantile(0.999)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert out == "[]"
