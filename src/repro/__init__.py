"""Tolerance Tiers: accuracy-latency trade-off tiers for ML cloud services.

A from-scratch reproduction of "One Size Does Not Fit All: Quantifying and
Exposing the Accuracy-Latency Trade-off in Machine Learning Cloud Service
APIs via Tolerance Tiers" (Halpern et al., ISPASS 2019).

Package layout
--------------

* :mod:`repro.core` -- the Tolerance Tiers contribution: ensembling
  policies, the bootstrapping routing-rule generator, the tier router, the
  guarantee audit, and the annotated-request API endpoint.
* :mod:`repro.asr` -- a beam-search speech-recognition engine whose pruning
  heuristics create the accuracy-latency trade-off (the paper's ASR
  service).
* :mod:`repro.vision` -- a NumPy CNN engine plus calibrated profiles of the
  paper's five ImageNet networks (the paper's IC service).
* :mod:`repro.service` -- the MLaaS substrate: requests, nodes, instance
  catalogue, pricing, load balancing, cluster deployments and the
  measurement tables every experiment runs on.
* :mod:`repro.datasets` -- synthetic stand-ins for VoxForge and ILSVRC-2012.
* :mod:`repro.analysis` -- the Section III "one size fits all" limitation
  analysis (Pareto frontier, request categories, headline summaries).
* :mod:`repro.stats` -- confidence, percentile and resampling helpers.

See ``examples/quickstart.py`` for a complete end-to-end walk-through.
"""

from repro.core import (
    RoutingRuleGenerator,
    TierRouter,
    audit_guarantees,
    enumerate_configurations,
    evaluate_policy,
)
from repro.core.tiers import default_tolerance_grid
from repro.service import (
    MeasurementSet,
    Objective,
    ServiceRequest,
    ServiceResponse,
    measure_asr_service,
    measure_ic_service,
)

__version__ = "1.0.0"

__all__ = [
    "MeasurementSet",
    "Objective",
    "RoutingRuleGenerator",
    "ServiceRequest",
    "ServiceResponse",
    "TierRouter",
    "__version__",
    "audit_guarantees",
    "default_tolerance_grid",
    "enumerate_configurations",
    "evaluate_policy",
    "measure_asr_service",
    "measure_ic_service",
]
