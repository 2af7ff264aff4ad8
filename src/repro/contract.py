"""The reproducibility contract: what a report digest hashes, versioned.

Goldens and history rows are only comparable under one contract.  If you
change a constant here, bump :data:`CONTRACT_VERSION` and regenerate the
goldens with their old → new table (``tests/service/golden/README.md``).
Version 1 (never stamped) hashed one ``%.12e`` text row per request;
version 2 hashes rounded columns (layout: :mod:`repro.service.simulation.report`).
Constants, not options: no parameter or environment variable reads them.
"""

CONTRACT_VERSION = 2

#: Explicit mantissa bits a digested float keeps, of binary64's 52:
#: about the 12 significant digits ``%.12e`` kept.
DIGEST_MANTISSA_BITS = 40

#: The one bit pattern every NaN hashes as (version 1 printed ``nan``).
DIGEST_NAN_BITS = 0x7FF8_0000_0000_0000

#: Hash order of the per-request columns.
DIGEST_COLUMNS = (
    "request_ids", "payloads", "tier", "arrival_s", "finished_s", "pairs",
    "pair", "escalated", "failed", "retries", "invocation_cost",
    "node_seconds_fast", "node_seconds_accurate", "shed", "degraded",
    "retry_denied",
)
