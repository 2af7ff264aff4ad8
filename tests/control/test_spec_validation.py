"""Construction-time validation of the control-plane and region specs.

Every declarative knob of the control plane — the adaptor's re-fit
cadence and tolerance ladder, the plane's window and tick, the SLO
targets, the admission shed rate — rejects a value that would silently
mis-drive the loop with a ``ValueError`` that names the field, and so
does every float of the region specs: NaN in any float field (or in any
float of a float tuple or mapping) is refused at construction, a
Hypothesis property over every NaN bit pattern.
``ControlPlane.from_spec`` likewise refuses an adaptor it cannot anchor.
The thresholds no caller varies are :mod:`repro.contract` constants,
not fields, so there is nothing to validate for them.
"""

import dataclasses
import struct
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contract import REFIT_BASE_TOLERANCE
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SequentialPolicy
from repro.core.router import RoutingRuleTable, TierRouter
from repro.service.control import (
    AdaptorConfig,
    AdmissionSpec,
    ControlPlane,
    ControlSpec,
    GrayDetectionSpec,
    SLOSpec,
)
from repro.service.measurement import MeasurementSet
from repro.service.regions import MultiRegionSpec, RegionSpec
from repro.service.request import Objective
from repro.service.simulation import (
    AutoscalerConfig,
    BatchingConfig,
    PoissonArrivals,
    RegionPartition,
    ScenarioSpec,
    scenario_measurements,
)

SLO = SLOSpec(name="p95", max_p95_latency_s=1.0)
NAN = float("nan")
TIERED = EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"refit_interval_s": 0.0}, "refit_interval_s"),
        ({"min_window_samples": 1}, "min_window_samples"),
        ({"tolerance_step": 0.0}, "tolerance_step"),
        ({"max_tolerance": REFIT_BASE_TOLERANCE - 0.05}, "max_tolerance"),
        ({"degradation_mode": "percent"}, "degradation_mode"),
        # NaN compares false both ways, so a ``<=`` check lets it through.
        ({"refit_interval_s": NAN}, "refit_interval_s"),
        ({"tolerance_step": NAN}, "tolerance_step"),
        ({"max_tolerance": NAN}, "max_tolerance"),
        # The refit's design space refuses these; the config must refuse
        # them before the run starts.
        ({"thresholds": (0.3, 1.5)}, "thresholds"),
        ({"thresholds": (-0.1, 0.5)}, "thresholds"),
        ({"thresholds": (0.4, NAN)}, "thresholds"),
    ],
)
def test_invalid_adaptor_configs_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        AdaptorConfig(**kwargs)


def test_a_control_spec_window_may_span_the_whole_run():
    assert ControlSpec(window_s=float("inf")).window_s == float("inf")


def test_adaptor_config_tolerance_ladder_may_be_a_single_rung():
    config = AdaptorConfig(max_tolerance=REFIT_BASE_TOLERANCE)
    assert config.max_tolerance == REFIT_BASE_TOLERANCE


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"window_s": 0.0}, "window_s"),
        ({"tick_interval_s": -0.5}, "tick_interval_s"),
        ({"admission": AdmissionSpec()}, "declare at least one SLOSpec"),
        ({"adaptor": AdaptorConfig()}, "declare at least one SLOSpec"),
        ({"window_s": NAN}, "window_s"),
        ({"tick_interval_s": NAN}, "tick_interval_s"),
        # An infinite tick interval never ticks.
        ({"tick_interval_s": float("inf")}, "tick_interval_s"),
    ],
)
def test_invalid_control_specs_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ControlSpec(**kwargs)


@pytest.mark.parametrize("probability", [-0.1, 1.01])
def test_admission_shed_probability_outside_unit_interval_rejected(probability):
    with pytest.raises(ValueError, match="shed_probability"):
        AdmissionSpec(policy="probabilistic", shed_probability=probability)


_REGION = RegionSpec(
    name="us",
    scenario=ScenarioSpec(
        name="s-us",
        arrivals=PoissonArrivals(3.0),
        n_requests=20,
        pools={"fast": 1, "slow": 1},
        configuration=TIERED,
    ),
    capacity_rps=10.0,
)

#: One valid instance of every declarative spec, each float knob set.
VALID_SPECS = (
    ControlSpec(),
    SLOSpec(
        name="p95",
        tier=0.05,
        max_p95_latency_s=1.0,
        min_availability=0.9,
        max_cost_per_request=1e-3,
    ),
    GrayDetectionSpec(),
    AdaptorConfig(),
    AdmissionSpec(),
    AutoscalerConfig(),
    BatchingConfig(max_batch_size=4),
    _REGION,
    MultiRegionSpec(
        name="m",
        regions=(_REGION, dataclasses.replace(_REGION, name="eu")),
        link_latencies={("us", "eu"): 0.1},
    ),
    RegionPartition(region="us", start_s=1.0, end_s=2.0),
)


def _n_floats(value):
    """Floats a field holds: one for a float, one per item of a non-empty
    tuple or mapping of floats, none otherwise."""
    if isinstance(value, float):
        return 1
    items = list(value.values()) if isinstance(value, Mapping) else value
    if isinstance(items, (tuple, list)) and items and all(
        isinstance(item, float) for item in items
    ):
        return len(items)
    return 0


def _with_nan(value, nan, at):
    """``value`` with its ``at``-th float replaced by ``nan``."""
    if isinstance(value, float):
        return nan
    if isinstance(value, Mapping):
        return {k: nan if i == at else v for i, (k, v) in enumerate(value.items())}
    return value[:at] + (nan,) + value[at + 1 :]


#: Any NaN: either sign, quiet or signalling, any payload.
NANS = st.builds(
    lambda sign, payload: struct.unpack(
        "<d", struct.pack("<Q", sign << 63 | 0x7FF << 52 | payload)
    )[0],
    st.integers(0, 1),
    st.integers(1, 2**52 - 1),
)


@pytest.mark.parametrize(
    "spec,name",
    [
        pytest.param(spec, field.name, id=f"{type(spec).__name__}.{field.name}")
        for spec in VALID_SPECS
        for field in dataclasses.fields(spec)
        if _n_floats(getattr(spec, field.name))
    ],
)
@settings(max_examples=10, deadline=None)
@given(nan=NANS, data=st.data())
def test_no_float_knob_accepts_nan(spec, name, nan, data):
    """NaN compares false both ways, so a bound written ``x <= 0`` lets it
    through and the knob then silently never fires (a NaN tick spins
    ``drain()``; a NaN target never breaches; a NaN capacity never
    saturates) or fails mid-run (a NaN link latency schedules at
    ``t=nan``)."""
    value = getattr(spec, name)
    at = data.draw(st.integers(0, _n_floats(value) - 1), label="at")
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(spec, **{name: _with_nan(value, nan, at)})


# ----------------------------------------------------------------------
# ControlPlane.from_spec: the adaptor needs an anchor it can re-fit
# ----------------------------------------------------------------------
ADAPTIVE = ControlSpec(slos=(SLO,), adaptor=AdaptorConfig())
ROUTER = TierRouter(
    {Objective.COST: RoutingRuleTable(Objective.COST, TIERED, {0.05: TIERED})}
)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"configuration": None}, "anchors on a fixed configuration"),
        ({"router": ROUTER}, "anchors on a fixed configuration"),
        ({"measurements": None}, "re-fits on measurements"),
        ({"deployed_versions": ("fast",)}, r"undeployed version\(s\) \['slow'\]"),
    ],
    ids=["no-anchor", "router", "no-measurements", "undeployed-anchor"],
)
def test_from_spec_refuses_an_adaptor_it_cannot_anchor(kwargs, match):
    arguments = dict(measurements=scenario_measurements(), configuration=TIERED)
    arguments.update(kwargs)
    with pytest.raises(ValueError, match=match):
        ControlPlane.from_spec(ADAPTIVE, **arguments)


def test_from_spec_narrows_the_refit_table_to_deployed_versions():
    toy = scenario_measurements()
    wide = MeasurementSet(
        service=toy.service,
        request_ids=toy.request_ids,
        versions=("fast", "slow", "huge"),
        error=np.column_stack([toy.error, toy.error[:, 1] * 0.5]),
        latency_s=np.column_stack([toy.latency_s, toy.latency_s[:, 1] * 4.0]),
        confidence=np.column_stack([toy.confidence, toy.confidence[:, 1]]),
        version_instances=dict(toy.version_instances, huge="cpu.medium"),
    )
    plane = ControlPlane.from_spec(
        ADAPTIVE,
        measurements=wide,
        configuration=TIERED,
        deployed_versions=("slow", "fast"),
    )
    assert plane.controller is None
    assert plane.adaptor.measurements.versions == ("fast", "slow")
    unrestricted = ControlPlane.from_spec(
        ADAPTIVE, measurements=wide, configuration=TIERED
    )
    assert unrestricted.adaptor.measurements is wide
