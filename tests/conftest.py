"""Shared fixtures for the test suite.

The expensive artefacts (the ASR measurement table, which needs real
beam-search decodes, and the calibrated IC measurement table) are built once
per session and shared; individual tests treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle.scalar import loop
from repro.datasets import make_voxforge_surrogate
from repro.service import measure_asr_service, measure_ic_service


def pytest_addoption(parser):
    """Register the golden-trace regeneration flag.

    ``--update-golden`` rewrites the scenario digests under
    ``tests/service/golden/`` instead of comparing against them; see the
    README in that directory for when regeneration is legitimate.
    """
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden scenario trace digests instead of "
        "asserting against them",
    )


@pytest.fixture()
def update_golden(request):
    """Whether this run should rewrite golden files."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def speech_corpus():
    """A small synthetic speech corpus (shared, read-only)."""
    return make_voxforge_surrogate(n_utterances=24, seed=11, n_speakers=8)


@pytest.fixture(scope="session")
def asr_measurements(speech_corpus):
    """ASR measurements of the small corpus under all seven versions."""
    return measure_asr_service(corpus=speech_corpus)


@pytest.fixture(scope="session")
def ic_measurements():
    """Calibrated CPU image-classification measurements (2 000 requests)."""
    return measure_ic_service(2000, device="cpu", seed=17)


@pytest.fixture(scope="session")
def ic_gpu_measurements():
    """Calibrated GPU image-classification measurements (1 000 requests)."""
    return measure_ic_service(1000, device="gpu", seed=23)


@pytest.fixture()
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(params=[pytest.param("legacy", marks=pytest.mark.slow), "columnar"])
def sim_loop(request):
    """Which loop the test's drains run on.

    The simulator suites (``tests/service``, ``tests/gateway``,
    ``tests/control``, ``tests/regions``) activate this fixture autouse
    via their local conftests, so every test there runs twice:
    ``"columnar"`` on the default path (the loop ``drain()`` picks from
    the run), ``"legacy"`` inside ``tests/oracle/scalar.py``'s
    ``scalar_loop()``, so the scalar oracle must reach the same verdicts.
    The oracle leg is marked ``slow``: the fast CI tier tests the path
    users run, the full tier both.  Modules that pick their loops
    themselves shadow this fixture to run once.
    """
    with loop(request.param):
        yield request.param
