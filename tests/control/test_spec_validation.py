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
import importlib
import inspect
import pkgutil
import re
import struct
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.asr import (
    AcousticFrontEnd,
    ASREngine,
    BeamSearchConfig,
    BigramLanguageModel,
    DecodingGraph,
    Lexicon,
)
from repro.contract import REFIT_BASE_TOLERANCE
from repro.core import LogisticEscalationPolicy, RoutingRuleGenerator
from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    SequentialPolicy,
)
from repro.core.router import RoutingRuleTable, TierRouter
from repro.datasets import (
    DifficultyProfile,
    SyntheticVoxForgeConfig,
)
from repro.service import (
    ClusterDeployment,
    InstanceType,
    PricingModel,
    ServiceRequest,
    VersionMeasurement,
    get_instance_type,
)
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
from repro.service.regions import MultiRegionSpec, RegionSpec
from repro.service.request import Objective
from repro.service.simulation import (
    AutoscalerConfig,
    BatchingConfig,
    BurstyArrivals,
    CascadePolicy,
    ColdStartWave,
    DiurnalArrivals,
    GrayFailure,
    NodeCrash,
    NodeSlowdown,
    PoissonArrivals,
    RegionPartition,
    RetryPolicy,
    RetryStorm,
    ScenarioSpec,
    SpikeArrivals,
    ThunderingHerd,
    ThunderingHerdArrivals,
    TraceArrivals,
    TransientFaults,
    replay_pools,
    scenario_measurements,
)
from repro.stats import ConfidenceTest
from repro.vision import NetworkProfile

SLO = SLOSpec(name="p95", max_p95_latency_s=1.0)
NAN = float("nan")
TIERED = EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6))
CPU = get_instance_type("cpu.medium")


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


def _public_float_constructors():
    """Every class a ``repro.*`` module exports whose constructor takes a
    float, mapped to its float parameters' names."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if not inspect.isclass(cls) or issubclass(cls, Exception) or cls in found:
                continue
            floats = tuple(
                parameter.name
                for parameter in inspect.signature(cls).parameters.values()
                if "float" in str(parameter.annotation)
            )
            if floats:
                found[cls] = floats
    return found


def _asr_parts():
    lexicon = Lexicon(["bado", "kine", "losu"])
    model = BigramLanguageModel(n_words=3).fit([[0, 1, 2], [2, 0, 1]])
    return lexicon, model, AcousticFrontEnd(lexicon)


_LEXICON, _LM, _FRONT_END = _asr_parts()
_TOY = scenario_measurements()

#: Every input class with a float constructor parameter, with a valid
#: example that sets each of those parameters to a float.
CHECKED_INPUTS = {
    # core
    RoutingRuleGenerator: dict(
        train_measurements=_TOY,
        configurations=[TIERED],
        confidence=0.999,
        sample_fraction=0.1,
    ),
    SequentialPolicy: dict(
        fast_version="fast", accurate_version="slow", confidence_threshold=0.6
    ),
    ConcurrentPolicy: dict(
        fast_version="fast", accurate_version="slow", confidence_threshold=0.6
    ),
    EarlyTerminationPolicy: dict(
        fast_version="fast", accurate_version="slow", confidence_threshold=0.6
    ),
    LogisticEscalationPolicy: dict(
        fast_version="fast",
        accurate_version="slow",
        escalation_probability=0.5,
        error_threshold=0.0,
        learning_rate=0.5,
    ),
    ConfidenceTest: dict(confidence=0.999),
    # service
    ServiceRequest: dict(request_id="r", payload="r000", tolerance=0.05),
    ClusterDeployment: dict(
        pools=replay_pools(_TOY, {"fast": 1}),
        per_request_fee=0.0,
        markup=3.0,
    ),
    PricingModel: dict(
        version_instances={"fast": CPU}, per_request_fee=1e-6, markup=3.0
    ),
    InstanceType: dict(name="cpu.test", hourly_price=0.1, speed_factor=1.0),
    VersionMeasurement: dict(
        request_id="r", version="fast", error=0.0, latency_s=0.1, confidence=0.9
    ),
    # control plane and regions
    ControlSpec: dict(window_s=10.0, tick_interval_s=0.5),
    SLOSpec: dict(
        name="p95",
        tier=0.05,
        max_p95_latency_s=1.0,
        min_availability=0.9,
        max_cost_per_request=1e-3,
    ),
    GrayDetectionSpec: dict(ratio_threshold=2.0),
    AdaptorConfig: dict(
        refit_interval_s=2.0,
        tolerance_step=0.05,
        max_tolerance=0.25,
        thresholds=(0.3, 0.5),
    ),
    AdmissionSpec: dict(shed_probability=0.5),
    TelemetryHub: dict(window_s=10.0),
    RegionSpec: dict(
        name="us",
        scenario=_REGION.scenario,
        capacity_rps=10.0,
        saturation_window_s=1.0,
    ),
    MultiRegionSpec: dict(
        name="m",
        regions=(_REGION, dataclasses.replace(_REGION, name="eu")),
        link_latency_s=0.05,
        link_latencies={("us", "eu"): 0.1},
    ),
    # simulation
    AutoscalerConfig: dict(
        scale_up_queue_depth=4.0,
        scale_up_utilization=0.85,
        scale_down_utilization=0.25,
        evaluation_interval_s=1.0,
        cooldown_s=3.0,
    ),
    BatchingConfig: dict(max_batch_size=4, max_wait_s=0.01, latency_exponent=0.5),
    PoissonArrivals: dict(rate=2.0),
    BurstyArrivals: dict(base_rate=1.0, burst_rate=5.0, mean_calm_s=10.0, mean_burst_s=2.0),
    DiurnalArrivals: dict(base_rate=1.0, amplitude=0.5, period_s=60.0, phase=0.0),
    SpikeArrivals: dict(
        base_rate=1.0, spike_start_s=1.0, spike_duration_s=1.0, spike_multiplier=5.0
    ),
    ThunderingHerdArrivals: dict(
        base=PoissonArrivals(1.0), start_s=1.0, end_s=2.0, spread_s=0.05
    ),
    TraceArrivals: dict(times_s=[0.0, 0.5, 1.0]),
    NodeCrash: dict(at_s=1.0, version="fast", recover_at_s=5.0),
    NodeSlowdown: dict(at_s=1.0, version="fast", speed_factor=0.25, until_s=3.0),
    GrayFailure: dict(
        at_s=1.0, version="fast", speed_factor=0.5, confidence_factor=0.8, until_s=9.0
    ),
    TransientFaults: dict(start_s=1.0, end_s=2.0, failure_probability=0.5),
    CascadePolicy: dict(
        window_s=5.0, base_probability=0.2, load_factor=0.05, max_probability=0.9
    ),
    RetryStorm: dict(
        start_s=1.0, end_s=4.0, failure_probability=0.9, bucket_s=0.5, bad_fraction=0.5
    ),
    ColdStartWave: dict(warmup_s=2.0, speed_factor=0.5, confidence_factor=1.0),
    ThunderingHerd: dict(start_s=1.0, end_s=2.0, spread_s=0.05),
    RegionPartition: dict(region="us", start_s=1.0, end_s=2.0),
    RetryPolicy: dict(max_attempts=3, backoff_s=0.1, backoff_factor=2.0),
    ScenarioSpec: dict(
        name="s",
        arrivals=PoissonArrivals(3.0),
        n_requests=20,
        pools={"fast": 1, "slow": 1},
        configuration=TIERED,
        tolerance=0.05,
    ),
    # ASR, vision and the synthetic datasets
    ASREngine: dict(
        lexicon=_LEXICON,
        language_model=_LM,
        front_end=_FRONT_END,
        lm_weight=1.0,
        word_insertion_penalty=0.5,
        seconds_per_expansion=40e-6,
        seconds_per_frame=1.2e-3,
    ),
    AcousticFrontEnd: dict(lexicon=_LEXICON, emission_scale=1.0),
    BeamSearchConfig: dict(beam=8.0, word_end_beam=6.0),
    BigramLanguageModel: dict(n_words=3, smoothing=0.1),
    DecodingGraph: dict(
        lexicon=_LEXICON, language_model=_LM, lm_weight=1.0, word_insertion_penalty=0.5
    ),
    DifficultyProfile: dict(idiosyncratic_std=0.35, difficulty_std=1.0),
    SyntheticVoxForgeConfig: dict(snr_db_range=(5.0, 17.0)),
    NetworkProfile: dict(
        name="ic_cpu_test",
        architecture="test",
        device="cpu",
        top1_error=0.3,
        latency_mean_s=0.1,
        latency_cv=0.12,
    ),
}

#: Classes whose float parameters are outputs, not knobs: the program
#: builds them from values it has already checked (or measured).
OUTPUT_RECORDS = {
    "ServiceResponse": "the gateway's answer to a request",
    "OsfaLimitSummary": "an analysis of a measured table",
    "ParetoPoint": "an analysis of a measured table",
    "VersionSummary": "an analysis of a measured table",
    "DecodeResult": "a decode's scores",
    "TranscriptionResult": "a transcription's scores",
    "ExecutionOutcome": "one executed request's outcome",
    "Invocation": "one version call inside an execution",
    "GuaranteeAudit": "an audit of generated rules",
    "ToleranceAuditRow": "an audit of generated rules",
    "PolicyMetrics": "metrics computed from outcomes",
    "TierSimulation": "metrics computed from outcomes",
    "WorstCaseEstimate": "a bootstrap's estimate",
    "RoutingRuleTable": "the rule generator's product; confidence labels it",
    "SpeakerProfile": "drawn by the corpus from its config's checked ranges",
    "Span": "a trace record (a loaded file is checked by the loader)",
    "SpanEvent": "a trace record (a loaded file is checked by the loader)",
    "CostBreakdown": "a bill",
    "NodeCompletion": "an engine record of a finished batch",
    "QueuedRequest": "an engine record of a queued job",
    "VersionResult": "a version's answer",
    "ControlLogEntry": "a control-log line",
    "PercentileEstimate": "a telemetry read",
    "SLOStatus": "an SLO verdict",
    "TierWindow": "a telemetry read",
    "WindowSnapshot": "a telemetry read",
    "TierTicket": "the gateway's handle; submit checks its times",
    "BoundaryEvent": "a region plan's log line",
    "PlannedRows": "a region plan's columns",
    "PlannedSubmission": "a region plan's row",
    "ShardPlan": "a region plan",
    "ShardResult": "a shard's result",
    "ShardTask": "a region plan handed to a shard",
    "Event": "an engine event-queue entry",
    "FaultLogEntry": "a fault-log line",
    "ScalingEvent": "an autoscaler log line",
    "LoadTestReport": "a run's report",
    "RequestRecord": "a run's per-request record",
}

FLOAT_CONSTRUCTORS = _public_float_constructors()


def _n_floats(value):
    """Floats a field holds: one for a float, one per item of a non-empty
    tuple, list or mapping of floats, none otherwise."""
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
    return type(value)([nan if i == at else v for i, v in enumerate(value)])


def _cases():
    """One case per float parameter of a checked input; one failing case
    per class that is neither a checked input nor an output record."""
    for cls, names in sorted(FLOAT_CONSTRUCTORS.items(), key=lambda c: c[0].__name__):
        if cls.__name__ in OUTPUT_RECORDS:
            continue
        for name in names if cls in CHECKED_INPUTS else ("<unclassified>",):
            yield pytest.param(cls, name, id=f"{cls.__name__}.{name}")


#: Any NaN: either sign, quiet or signalling, any payload.
NANS = st.builds(
    lambda sign, payload: struct.unpack(
        "<d", struct.pack("<Q", sign << 63 | 0x7FF << 52 | payload)
    )[0],
    st.integers(0, 1),
    st.integers(1, 2**52 - 1),
)


@pytest.mark.parametrize("cls,name", list(_cases()))
@settings(max_examples=10, deadline=None)
@given(nan=NANS, data=st.data())
def test_no_float_knob_accepts_nan(cls, name, nan, data):
    """NaN compares false both ways, so a bound written ``x <= 0`` lets it
    through and the knob then silently never fires (a NaN tick spins
    ``drain()``; a NaN target never breaches; a NaN spike multiplier
    never accepts an arrival) or fails mid-run (a NaN link latency
    schedules at ``t=nan``).  Every public class with a float
    constructor parameter is found by introspection: it is a checked
    input with a valid example, or an output record with a reason."""
    assert cls in CHECKED_INPUTS, (
        f"{cls.__name__} takes a float: add a valid example to "
        "CHECKED_INPUTS, or a reason to OUTPUT_RECORDS"
    )
    example = CHECKED_INPUTS[cls]
    cls(**example)
    value = example.get(name)
    assert _n_floats(value), f"the {cls.__name__} example sets no float {name}"
    at = data.draw(st.integers(0, _n_floats(value) - 1), label="at")
    with pytest.raises(ValueError, match=re.escape(name)):
        cls(**dict(example, **{name: _with_nan(value, nan, at)}))


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
