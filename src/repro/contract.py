"""The behaviour contract: every locked threshold that decides what a run does.

Goldens and history rows are only comparable under one contract.  A
change to any value here is a behaviour change: bump
:data:`CONTRACT_VERSION` with it and regenerate the goldens with their
old → new table (``tests/service/golden/README.md``).  Version 1 (never
stamped) hashed one ``%.12e`` text row per request; version 2 hashes
rounded columns (layout: :mod:`repro.service.simulation.report`).
Version 3 gives the trace digest the same treatment: typed span streams
in :data:`TRACE_DIGEST_STREAMS` order instead of ``%.12e`` text lines
(layout: :mod:`repro.obs.trace`); the report layout is version 2's, under
a ``report-digest:v3`` header.

Constants, not options: no environment variable reads them.  Where
callers do vary a value (the rule generator's confidence and trial
bounds, an SLO's debounce, gray detection's sensitivity) the parameter
stays and its default reads the constant here.  This module imports
nothing from :mod:`repro`, so every layer may import it.
"""

CONTRACT_VERSION = 3

# Rule generation (paper Fig. 7).
#: Bootstrap confidence of a worst-case estimate: the paper's 99.9 %.
RULEGEN_CONFIDENCE = 0.999

#: Fraction of the training data per bootstrap trial (the paper's
#: ``choice(train, k=len/10)``).
RULEGEN_SAMPLE_FRACTION = 0.1

#: Trials before the spread test may pass, so no worst case rests on one
#: or two lucky subsamples.
RULEGEN_MIN_TRIALS = 10

#: Trial cap per configuration of the rule generator.
RULEGEN_MAX_TRIALS = 120

#: Trial cap of a bare ``ConfidenceTest`` (it protects a caller from a
#: metric whose spread never settles).
CONFIDENCE_TEST_MAX_TRIALS = 500

# The control plane's policy adaptor: its tolerance ladder, generated
# once per plane on the whole table, and the walk along it (a refit).
#: Bootstrap confidence of the ladder: lower than the offline 99.9 %; at
#: 99.9 % (5-row subsamples) the toy table's 0.15 rung certifies only the
#: accurate single version.
REFIT_CONFIDENCE = 0.95

#: Bootstrap trial bounds per candidate, and subsample fraction per
#: trial, of the ladder.
REFIT_MIN_TRIALS = 8
REFIT_MAX_TRIALS = 24
REFIT_SAMPLE_FRACTION = 0.5

#: The base rung's tolerance: tightening stops here and restores the anchor.
REFIT_BASE_TOLERANCE = 0.0

#: Consecutive OK evaluations before one tightening step.
REFIT_RECOVER_AFTER = 4

#: A swap is rolled back when, still in BREACH one refit interval later,
#: the confident windowed p95 exceeds the pre-swap p95 by this factor.
REFIT_ROLLBACK_MARGIN = 1.05

# Telemetry and SLOs.
#: Below this many samples a windowed percentile is flagged
#: low-confidence and cannot count as breach evidence on its own.
MIN_PERCENTILE_SAMPLES = 20

#: Pressure ratio above which an SLO warns (within 10 % of its target).
SLO_WARN_RATIO = 0.9

#: Default consecutive violating evaluations to enter BREACH, and clean
#: ones to leave it.
SLO_BREACH_AFTER = 2
SLO_CLEAR_AFTER = 2

# Gray-failure detection.
#: Default divergence (node EWMA over pool median) that looks gray.
GRAY_RATIO_THRESHOLD = 2.0

#: Default completions a node serves before its EWMA participates.
GRAY_MIN_SAMPLES = 8

#: Smoothing factor of the per-node service-time EWMA.
GRAY_EWMA_ALPHA = 0.3

#: Default consecutive evaluations to flag a node, and to release it.
GRAY_DETECT_AFTER = 2
GRAY_CLEAR_AFTER = 2

# Regions.
#: Telemetry window of a region's SLO monitors.
REGION_SLO_WINDOW_S = 10.0

#: Evaluation cadence of a region's SLO monitors.
REGION_SLO_TICK_S = 1.0

# Benchmark comparison.
#: Advisory no-change band of a two-artefact perf comparison (±5 %).
COMPARE_THRESHOLD = 0.05

# Digest layouts.
#: Explicit mantissa bits a digested float keeps, of binary64's 52:
#: about the 12 significant digits ``%.12e`` kept.
DIGEST_MANTISSA_BITS = 40

#: The one bit pattern every NaN hashes as (version 1 printed ``nan``).
DIGEST_NAN_BITS = 0x7FF8_0000_0000_0000

#: Hash order of the report's per-request columns.
DIGEST_COLUMNS = (
    "request_ids", "payloads", "tier", "arrival_s", "finished_s", "pairs",
    "pair", "escalated", "failed", "retries", "invocation_cost",
    "node_seconds_fast", "node_seconds_accurate", "shed", "degraded",
    "retry_denied",
)

#: Hash order of the trace digest's streams: per trace, per span, per
#: digested attribute (sorted keys, ``node`` excluded), per event.
TRACE_DIGEST_STREAMS = (
    "request_id", "n_spans",
    "name", "status", "start_s", "end_s", "n_attrs", "n_events",
    "attr_key", "attr_kind", "attr_float", "attr_text",
    "event_time_s", "event_name", "event_detail",
)
