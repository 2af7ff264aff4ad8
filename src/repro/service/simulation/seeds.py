"""Seed-stream accounting: every RNG stream the stack derives, audited.

The simulator family derives several generators from one scenario seed —
the engine's arrival/payload stream, the fault generator, per-storm
bucket generators, the control plane's admission generator, and (with
regions) one spawned root seed per shard.  Determinism rests on those
streams being *disjoint*: two consumers sharing a spawn key would see
correlated draws, and a scenario's behaviour would silently depend on
which consumer drew first.

This module is the single registry of the spawn-key constants, an
enumerator that lists every stream a :class:`ScenarioSpec` will open,
and :func:`audit_seed_streams`, which raises when any two streams share
a key.  The regions subsystem calls :func:`spawn_region_seed` to derive
per-shard root seeds and re-audits the union of every shard's streams.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

__all__ = [
    "ADMISSION_STREAM",
    "FAULT_STREAM",
    "REGION_STREAM",
    "STORM_STREAM",
    "SeedStreamCollision",
    "audit_seed_streams",
    "scenario_stream_keys",
    "spawn_region_seed",
]

#: Spawn-key constants.  These mirror the literals at the RNG
#: construction sites (faults/plane); the audit tests pin that they stay
#: in sync, so a new stream must be registered here to land.
FAULT_STREAM = 0xFA117  #: engine fault generator ``[seed, FAULT_STREAM]``
STORM_STREAM = 0xB1A57  #: per-storm buckets ``[seed, STORM_STREAM, k]``
ADMISSION_STREAM = 0xAD41  #: admission control ``[seed, ADMISSION_STREAM]``
REGION_STREAM = 0x9E610  #: region shard roots ``[seed, REGION_STREAM, i]``

#: Stream key: the integer tuple handed to ``np.random.default_rng`` /
#: ``np.random.SeedSequence``.  A bare engine seed is the 1-tuple
#: ``(seed,)``.
StreamKey = Tuple[int, ...]


class SeedStreamCollision(ValueError):
    """Two RNG consumers derived the same stream key."""


def spawn_region_seed(seed: int, index: int) -> int:
    """Derive the root seed for region shard ``index`` of a multi-region run.

    The shard seed is the first 64-bit word of
    ``SeedSequence([seed, REGION_STREAM, index])`` — a *value*, not a key
    tuple, because the shard then re-derives its own engine/fault/storm/
    admission streams from it exactly as a standalone scenario would.
    That makes a shard's run bit-identical to a plain single-region
    scenario carrying the same root seed, which is what the 1-region
    equivalence test pins.
    """
    sequence = np.random.SeedSequence([seed, REGION_STREAM, index])
    return int(sequence.generate_state(1, np.uint64)[0])


def scenario_stream_keys(
    *,
    seed: int,
    n_storms: int = 0,
    has_probabilistic_faults: bool = False,
    has_control: bool = False,
    prefix: str = "",
) -> Dict[str, StreamKey]:
    """Every RNG stream one engine run opens, as ``name -> key``.

    Mirrors the construction sites: the engine's arrival/payload
    generator is always opened; the fault generator only when
    probabilistic faults (transient windows, storms, cascades) are
    present; one bucket generator per retry storm; the admission
    generator only for closed-loop runs.
    """
    streams: Dict[str, StreamKey] = {f"{prefix}engine": (seed,)}
    if has_probabilistic_faults or n_storms:
        streams[f"{prefix}faults"] = (seed, FAULT_STREAM)
    for k in range(n_storms):
        streams[f"{prefix}storm[{k}]"] = (seed, STORM_STREAM, k)
    if has_control:
        streams[f"{prefix}admission"] = (seed, ADMISSION_STREAM)
    return streams


def streams_for_spec(spec, *, prefix: str = "") -> Dict[str, StreamKey]:
    """:func:`scenario_stream_keys` for a concrete :class:`ScenarioSpec`."""
    from repro.service.simulation.faults import (
        CascadePolicy,
        RetryStorm,
        TransientFaults,
    )

    faults = tuple(spec.faults or ())
    n_storms = sum(isinstance(f, RetryStorm) for f in faults)
    probabilistic = any(
        isinstance(f, (TransientFaults, RetryStorm, CascadePolicy))
        for f in faults
    )
    return scenario_stream_keys(
        seed=spec.seed,
        n_storms=n_storms,
        has_probabilistic_faults=probabilistic,
        has_control=spec.control is not None,
        prefix=prefix,
    )


def audit_seed_streams(
    streams: Mapping[str, StreamKey] | Iterable[Tuple[str, StreamKey]],
) -> Dict[str, StreamKey]:
    """Assert every named stream holds a distinct key.

    Returns the mapping unchanged on success so call sites can audit
    inline (``streams = audit_seed_streams(build_streams(...))``).
    Raises :class:`SeedStreamCollision` naming both colliding consumers
    otherwise.
    """
    items = (
        list(streams.items())
        if isinstance(streams, Mapping)
        else list(streams)
    )
    seen: Dict[StreamKey, str] = {}
    for name, key in items:
        key = tuple(int(part) for part in key)
        other = seen.get(key)
        if other is not None:
            raise SeedStreamCollision(
                f"RNG stream collision: {other!r} and {name!r} both "
                f"derive from spawn key {key}"
            )
        seen[key] = name
    return dict(items)
