"""Per-request, per-version measurements.

Everything Tolerance Tiers decides — which versions to ensemble, what
threshold to escalate at, what worst-case degradation a tier can promise —
is decided from *measurements*: for every training request and every
service version, what error did the version make, how long did it take, and
how confident was it.  The limitation analysis of Section III consumes the
same data.  :class:`MeasurementSet` is that table, and the ``measure_*``
builders produce it from the two substrates in this repository:

* :func:`measure_asr_service` — decode a synthetic speech corpus with every
  ASR beam-search version (real decoder, real WER).
* :func:`measure_ic_service` — sample the calibrated CPU/GPU profiles of the
  five ImageNet networks.

Measurement sets serialise to JSON so the expensive ASR decode can be
cached across benchmark runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import checks
from repro.service.instances import InstanceType, get_instance_type

__all__ = [
    "MeasurementSet",
    "VersionMeasurement",
    "measure_asr_service",
    "measure_ic_service",
]


@dataclass(frozen=True)
class VersionMeasurement:
    """One (request, version) observation.

    Attributes:
        request_id: Identifier of the request.
        version: Service-version name.
        error: The version's error on the request (per-utterance WER, or
            0/1 top-1 error).
        latency_s: Service-side processing latency on the version's node.
        confidence: Model confidence in ``[0, 1]``.
    """

    request_id: str
    version: str
    error: float
    latency_s: float
    confidence: float

    def __post_init__(self) -> None:
        checks.non_negative("error", self.error, finite=True)
        checks.non_negative("latency_s", self.latency_s, finite=True)
        checks.probability("confidence", self.confidence)


@dataclass
class MeasurementSet:
    """Dense (requests x versions) measurement table for one service.

    Attributes:
        service: Service name, e.g. ``"asr"`` or ``"ic_cpu"``.
        request_ids: Request identifiers (row order).
        versions: Service-version names (column order, fastest first by
            convention).
        error: Array of shape ``(n_requests, n_versions)``.
        latency_s: Array of the same shape.
        confidence: Array of the same shape.
        version_instances: Instance-type name each version is deployed on
            (used by the pricing model).
        metadata: Free-form provenance (corpus seed, sizes, ...).
    """

    service: str
    request_ids: Tuple[str, ...]
    versions: Tuple[str, ...]
    error: np.ndarray
    latency_s: np.ndarray
    confidence: np.ndarray
    version_instances: Dict[str, str]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.request_ids), len(self.versions))
        for name in ("error", "latency_s", "confidence"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape != expected:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {expected}"
                )
        missing = set(self.versions) - set(self.version_instances)
        if missing:
            raise ValueError(f"versions without an instance type: {sorted(missing)}")
        cells = (("request", self.request_ids), ("version", self.versions))
        checks.non_negative("error", self.error, finite=True, labels=cells)
        checks.non_negative("latency_s", self.latency_s, finite=True, labels=cells)
        checks.probability("confidence", self.confidence, labels=cells)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Number of requests (rows)."""
        return len(self.request_ids)

    def version_index(self, version: str) -> int:
        """Column index of a version.

        Raises:
            KeyError: If the version is not in the set.
        """
        try:
            return self.versions.index(version)
        except ValueError:
            raise KeyError(
                f"unknown version {version!r}; have {list(self.versions)}"
            ) from None

    def instance_for(self, version: str) -> InstanceType:
        """Instance type a version is deployed on."""
        return get_instance_type(self.version_instances[version])

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def mean_error(self, version: str) -> float:
        """Mean per-request error of one version."""
        return float(self.error[:, self.version_index(version)].mean())

    def mean_latency(self, version: str) -> float:
        """Mean processing latency of one version."""
        return float(self.latency_s[:, self.version_index(version)].mean())

    def most_accurate_version(self) -> str:
        """The version with the lowest mean error (the paper's 'best tier')."""
        means = self.error.mean(axis=0)
        return self.versions[int(np.argmin(means))]

    def fastest_version(self) -> str:
        """The version with the lowest mean latency."""
        means = self.latency_s.mean(axis=0)
        return self.versions[int(np.argmin(means))]

    def column(self, version: str, field_name: str) -> np.ndarray:
        """One version's per-request values for a field.

        Args:
            version: Service-version name.
            field_name: ``"error"``, ``"latency_s"`` or ``"confidence"``.
        """
        if field_name not in ("error", "latency_s", "confidence"):
            raise ValueError(f"unknown field {field_name!r}")
        return getattr(self, field_name)[:, self.version_index(version)].copy()

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "MeasurementSet":
        """Return a new measurement set restricted to the given rows."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise ValueError("cannot build an empty measurement subset")
        return MeasurementSet(
            service=self.service,
            request_ids=tuple(self.request_ids[i] for i in idx),
            versions=self.versions,
            error=self.error[idx],
            latency_s=self.latency_s[idx],
            confidence=self.confidence[idx],
            version_instances=dict(self.version_instances),
            metadata=dict(self.metadata),
        )

    def restrict_versions(self, versions: Sequence[str]) -> "MeasurementSet":
        """Return a new measurement set covering only the given versions.

        Useful when a deployment only hosts a subset of the measured
        versions (e.g. the live-serving example deploys two of the five
        ImageNet networks).

        Raises:
            KeyError: If any requested version is not in the set.
            ValueError: If no versions are requested.
        """
        versions = list(versions)
        if not versions:
            raise ValueError("must keep at least one version")
        columns = [self.version_index(v) for v in versions]
        return MeasurementSet(
            service=self.service,
            request_ids=self.request_ids,
            versions=tuple(versions),
            error=self.error[:, columns],
            latency_s=self.latency_s[:, columns],
            confidence=self.confidence[:, columns],
            version_instances={v: self.version_instances[v] for v in versions},
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # construction / (de)serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        service: str,
        records: Sequence[VersionMeasurement],
        version_instances: Mapping[str, str],
        *,
        versions_order: Optional[Sequence[str]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "MeasurementSet":
        """Assemble a dense set from individual measurement records.

        Every request must have exactly one record per version.
        """
        if not records:
            raise ValueError("no measurement records supplied")
        request_ids = list(dict.fromkeys(r.request_id for r in records))
        versions = list(versions_order) if versions_order else list(
            dict.fromkeys(r.version for r in records)
        )
        row = {rid: i for i, rid in enumerate(request_ids)}
        col = {v: j for j, v in enumerate(versions)}
        shape = (len(request_ids), len(versions))
        error = np.full(shape, np.nan)
        latency = np.full(shape, np.nan)
        confidence = np.full(shape, np.nan)
        for record in records:
            i, j = row[record.request_id], col[record.version]
            error[i, j] = record.error
            latency[i, j] = record.latency_s
            confidence[i, j] = record.confidence
        # A record's values are finite, so NaN marks a cell no record filled.
        if np.isnan(error).any():
            raise ValueError("measurement table is incomplete (missing cells)")
        return cls(
            service=service,
            request_ids=tuple(request_ids),
            versions=tuple(versions),
            error=error,
            latency_s=latency,
            confidence=confidence,
            version_instances=dict(version_instances),
            metadata=metadata or {},
        )

    def to_json(self, path: str | Path) -> None:
        """Serialise the measurement set to a JSON file, all or nothing:
        an interrupted write leaves the previous file, never a truncated
        one, and no partial file beside it."""
        payload = {
            "service": self.service,
            "request_ids": list(self.request_ids),
            "versions": list(self.versions),
            "error": self.error.tolist(),
            "latency_s": self.latency_s.tolist(),
            "confidence": self.confidence.tolist(),
            "version_instances": self.version_instances,
            "metadata": self.metadata,
        }
        path = Path(path)
        partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
        try:
            partial.write_text(json.dumps(payload))
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise

    @classmethod
    def from_json(cls, path: str | Path) -> "MeasurementSet":
        """Load a measurement set previously written by :meth:`to_json`.

        Raises:
            ValueError: Naming the file, if it is not JSON (a write that was
                interrupted leaves it truncated), lacks a field, or holds a
                table the constructor refuses.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: undecodable JSON: {exc}") from None
        try:
            return cls(
                service=payload["service"],
                request_ids=tuple(payload["request_ids"]),
                versions=tuple(payload["versions"]),
                error=np.asarray(payload["error"], dtype=float),
                latency_s=np.asarray(payload["latency_s"], dtype=float),
                confidence=np.asarray(payload["confidence"], dtype=float),
                version_instances=dict(payload["version_instances"]),
                metadata=dict(payload.get("metadata", {})),
            )
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def measure_asr_service(
    corpus=None,
    *,
    n_utterances: int = 200,
    seed: int = 20190324,
    versions=None,
    instance_type: str = "cpu.medium",
    cache_path: str | Path | None = None,
) -> MeasurementSet:
    """Decode a synthetic speech corpus with every ASR service version.

    Args:
        corpus: An existing :class:`~repro.datasets.voxforge.SyntheticSpeechCorpus`;
            built from ``n_utterances``/``seed`` when omitted.
        n_utterances: Corpus size when ``corpus`` is omitted.
        seed: Corpus seed when ``corpus`` is omitted.
        versions: Mapping of version name to
            :class:`~repro.asr.beam_search.BeamSearchConfig`; defaults to the
            seven paper versions.
        instance_type: Instance type every ASR pool runs on (the paper's ASR
            engine is CPU-only).
        cache_path: Optional JSON path; when it exists the cached set is
            returned, otherwise the fresh measurements are written there.

    Returns:
        A dense measurement set with one row per utterance.
    """
    from repro.asr import ASREngine, ASR_VERSIONS
    from repro.datasets.voxforge import make_voxforge_surrogate

    if cache_path is not None and Path(cache_path).exists():
        return MeasurementSet.from_json(cache_path)

    if corpus is None:
        corpus = make_voxforge_surrogate(n_utterances=n_utterances, seed=seed)
    if versions is None:
        versions = ASR_VERSIONS
    engine = ASREngine.from_corpus(corpus)
    speed = get_instance_type(instance_type).speed_factor

    records: List[VersionMeasurement] = []
    for name, config in versions.items():
        for utterance in corpus.utterances:
            result = engine.transcribe(utterance, config)
            records.append(
                VersionMeasurement(
                    request_id=utterance.utterance_id,
                    version=name,
                    error=result.wer,
                    latency_s=result.latency_s / speed,
                    confidence=result.confidence,
                )
            )
    measurement_set = MeasurementSet.from_records(
        "asr",
        records,
        {name: instance_type for name in versions},
        versions_order=list(versions.keys()),
        metadata={
            "corpus_seed": corpus.config.seed,
            "n_utterances": len(corpus),
            "vocabulary_size": corpus.config.vocabulary_size,
        },
    )
    if cache_path is not None:
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        measurement_set.to_json(cache_path)
    return measurement_set


def measure_ic_service(
    n_requests: int = 5000,
    *,
    device: str = "cpu",
    seed: int = 2012,
    cache_path: str | Path | None = None,
) -> MeasurementSet:
    """Sample the calibrated image-classification profiles for one device.

    Args:
        n_requests: Number of simulated classification requests.
        device: ``"cpu"`` or ``"gpu"``; selects the profile table and the
            instance type the versions are priced on.
        seed: Sampling seed.
        cache_path: Optional JSON cache path.
    """
    from repro.vision.profiles import (
        IC_CPU_VERSIONS,
        IC_GPU_VERSIONS,
        simulate_ic_measurements,
    )

    if device not in ("cpu", "gpu"):
        raise ValueError("device must be 'cpu' or 'gpu'")
    if cache_path is not None and Path(cache_path).exists():
        return MeasurementSet.from_json(cache_path)

    versions = IC_CPU_VERSIONS if device == "cpu" else IC_GPU_VERSIONS
    instance = "cpu.medium" if device == "cpu" else "gpu.k80"
    _, outcomes = simulate_ic_measurements(n_requests, versions=versions, seed=seed)

    request_ids = tuple(f"img_{i:06d}" for i in range(n_requests))
    names = tuple(versions.keys())
    error = np.column_stack([outcomes[name].error for name in names])
    latency = np.column_stack([outcomes[name].latency_s for name in names])
    confidence = np.column_stack([outcomes[name].confidence for name in names])

    measurement_set = MeasurementSet(
        service=f"ic_{device}",
        request_ids=request_ids,
        versions=names,
        error=error,
        latency_s=latency,
        confidence=confidence,
        version_instances={name: instance for name in names},
        metadata={"seed": seed, "device": device, "n_requests": n_requests},
    )
    if cache_path is not None:
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        measurement_set.to_json(cache_path)
    return measurement_set
