"""Construction-time validation of the control-plane specs.

Every declarative knob of the control plane — the adaptor's re-fit
cadence and tolerance ladder, the plane's window and tick, the SLO warn
ratio, the admission shed rate, the hub's small-N guard — rejects a
value that would silently mis-drive the loop (NaN in any float knob
included) with a ``ValueError`` that names the field.  ``ControlPlane.from_spec`` likewise refuses an adaptor
it cannot anchor.
"""

import dataclasses

import numpy as np
import pytest

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
    TelemetryHub,
)
from repro.service.measurement import MeasurementSet
from repro.service.request import Objective
from repro.service.simulation import scenario_measurements

SLO = SLOSpec(name="p95", max_p95_latency_s=1.0)
NAN = float("nan")
TIERED = EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"refit_interval_s": 0.0}, "refit_interval_s"),
        ({"min_window_samples": 1}, "min_window_samples"),
        ({"tolerance_step": 0.0}, "tolerance_step"),
        ({"base_tolerance": 0.1, "max_tolerance": 0.05}, "max_tolerance"),
        ({"recover_after": 0}, "recover_after"),
        ({"rollback_margin": 0.9}, "rollback_margin"),
        ({"degradation_mode": "percent"}, "degradation_mode"),
        # NaN compares false both ways, so a ``<=`` check lets it through.
        ({"refit_interval_s": NAN}, "refit_interval_s"),
        ({"tolerance_step": NAN}, "tolerance_step"),
        ({"max_tolerance": NAN}, "max_tolerance"),
        ({"rollback_margin": NAN}, "rollback_margin"),
        # The refit's ConfidenceTest and design space refuse these; the
        # config must refuse them before the run starts.
        ({"min_trials": 1}, "min_trials"),
        ({"min_trials": 12, "max_trials": 11}, "max_trials"),
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
    config = AdaptorConfig(base_tolerance=0.1, max_tolerance=0.1)
    assert config.max_tolerance == config.base_tolerance


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


@pytest.mark.parametrize("warn_ratio", [0.0, 1.5])
def test_slo_warn_ratio_outside_unit_interval_rejected(warn_ratio):
    with pytest.raises(ValueError, match="warn_ratio"):
        SLOSpec(name="p95", max_p95_latency_s=1.0, warn_ratio=warn_ratio)


@pytest.mark.parametrize("probability", [-0.1, 1.01])
def test_admission_shed_probability_outside_unit_interval_rejected(probability):
    with pytest.raises(ValueError, match="shed_probability"):
        AdmissionSpec(policy="probabilistic", shed_probability=probability)


def test_hub_needs_at_least_one_sample_per_percentile():
    with pytest.raises(ValueError, match="min_percentile_samples"):
        TelemetryHub(window_s=5.0, min_percentile_samples=0)


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
)


@pytest.mark.parametrize(
    "spec,name",
    [
        pytest.param(spec, field.name, id=f"{type(spec).__name__}.{field.name}")
        for spec in VALID_SPECS
        for field in dataclasses.fields(spec)
        if isinstance(getattr(spec, field.name), float)
    ],
)
def test_no_float_knob_accepts_nan(spec, name):
    """NaN compares false both ways, so a bound written ``x <= 0`` lets it
    through and the knob then silently never fires (a NaN tick spins
    ``drain()``; a NaN target never breaches; a NaN floor never sheds)."""
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(spec, **{name: NAN})


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
