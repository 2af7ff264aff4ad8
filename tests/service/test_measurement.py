"""Tests for measurement records, tables and builders."""

import json
import re

import numpy as np
import pytest

from repro.service.measurement import (
    MeasurementSet,
    VersionMeasurement,
    measure_ic_service,
)


def _tiny_set() -> MeasurementSet:
    records = []
    for i in range(6):
        for version, (err, lat, conf) in {
            "fast": (float(i % 2), 0.1, 0.6),
            "slow": (0.0, 0.4, 0.9),
        }.items():
            records.append(
                VersionMeasurement(
                    request_id=f"r{i}", version=version, error=err,
                    latency_s=lat, confidence=conf,
                )
            )
    return MeasurementSet.from_records(
        "toy", records, {"fast": "cpu.medium", "slow": "cpu.large"},
        versions_order=["fast", "slow"],
    )


class TestVersionMeasurement:
    def test_validation(self):
        with pytest.raises(ValueError):
            VersionMeasurement("r", "v", error=-0.1, latency_s=0.1, confidence=0.5)
        with pytest.raises(ValueError):
            VersionMeasurement("r", "v", error=0.1, latency_s=-0.1, confidence=0.5)
        with pytest.raises(ValueError):
            VersionMeasurement("r", "v", error=0.1, latency_s=0.1, confidence=1.5)


class TestMeasurementSet:
    def test_shapes_and_accessors(self):
        ms = _tiny_set()
        assert ms.n_requests == 6
        assert len(ms.versions) == 2
        assert ms.version_index("slow") == 1
        assert ms.mean_error("slow") == 0.0
        assert ms.mean_latency("fast") == pytest.approx(0.1)
        assert ms.most_accurate_version() == "slow"
        assert ms.fastest_version() == "fast"

    def test_unknown_version_raises(self):
        with pytest.raises(KeyError):
            _tiny_set().version_index("huge")

    def test_column_and_field_validation(self):
        ms = _tiny_set()
        assert ms.column("fast", "error").shape == (6,)
        with pytest.raises(ValueError):
            ms.column("fast", "temperature")

    def test_instance_lookup(self):
        ms = _tiny_set()
        assert ms.instance_for("slow").name == "cpu.large"

    def test_subset(self):
        ms = _tiny_set()
        test = ms.subset([4, 5])
        assert test.n_requests == 2
        assert test.request_ids == ("r4", "r5")

    def test_subset_rejects_empty(self):
        with pytest.raises(ValueError):
            _tiny_set().subset([])

    def test_incomplete_records_rejected(self):
        records = [
            VersionMeasurement("r0", "fast", 0.1, 0.1, 0.5),
            VersionMeasurement("r0", "slow", 0.1, 0.2, 0.5),
            VersionMeasurement("r1", "fast", 0.1, 0.1, 0.5),
        ]
        with pytest.raises(ValueError):
            MeasurementSet.from_records(
                "toy", records, {"fast": "cpu.medium", "slow": "cpu.medium"}
            )

    def test_missing_instance_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet(
                service="toy",
                request_ids=("r0",),
                versions=("a",),
                error=np.zeros((1, 1)),
                latency_s=np.zeros((1, 1)),
                confidence=np.zeros((1, 1)),
                version_instances={},
            )

    @pytest.mark.parametrize(
        "column,row,value,message",
        [
            (
                "error",
                2,
                float("inf"),
                "error must be finite and non-negative, got inf "
                "at request 'r2', version 'slow'",
            ),
            (
                "latency_s",
                3,
                float("nan"),
                "latency_s must be finite and non-negative, got nan "
                "at request 'r3', version 'slow'",
            ),
            (
                "confidence",
                4,
                7.0,
                "confidence must be in [0, 1], got 7.0 "
                "at request 'r4', version 'slow'",
            ),
        ],
        ids=["error", "latency_s", "confidence"],
    )
    def test_a_bad_cell_in_a_file_is_refused_by_name(
        self, tmp_path, column, row, value, message
    ):
        path = tmp_path / "measurements.json"
        _tiny_set().to_json(path)
        payload = json.loads(path.read_text())
        payload[column][row][1] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            MeasurementSet.from_json(path)

    def test_a_truncated_file_is_refused_by_path(self, tmp_path):
        path = tmp_path / "measurements.json"
        _tiny_set().to_json(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}: undecodable JSON")):
            MeasurementSet.from_json(path)

    def test_a_missing_field_is_refused_by_path_and_name(self, tmp_path):
        path = tmp_path / "measurements.json"
        _tiny_set().to_json(path)
        payload = json.loads(path.read_text())
        del payload["latency_s"]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: missing field 'latency_s'")
        ):
            MeasurementSet.from_json(path)

    def test_json_round_trip(self, tmp_path):
        ms = _tiny_set()
        path = tmp_path / "measurements.json"
        ms.to_json(path)
        loaded = MeasurementSet.from_json(path)
        assert loaded.service == ms.service
        assert loaded.request_ids == ms.request_ids
        assert np.allclose(loaded.error, ms.error)
        assert loaded.version_instances == ms.version_instances


class TestBuilders:
    def test_asr_builder_shape(self, asr_measurements, speech_corpus):
        assert asr_measurements.service == "asr"
        assert asr_measurements.n_requests == len(speech_corpus)
        assert len(asr_measurements.versions) == 7
        assert (asr_measurements.error >= 0).all()
        assert (asr_measurements.latency_s > 0).all()

    def test_asr_tradeoff_direction(self, asr_measurements):
        # The widest configuration must be at least as accurate and slower
        # than the narrowest one.
        assert asr_measurements.mean_error("asr_v7") < asr_measurements.mean_error(
            "asr_v1"
        )
        assert asr_measurements.mean_latency("asr_v7") > asr_measurements.mean_latency(
            "asr_v1"
        )

    def test_asr_cache_round_trip(self, tmp_path):
        from repro.datasets import make_voxforge_surrogate
        from repro.service.measurement import measure_asr_service

        tiny = make_voxforge_surrogate(n_utterances=5, seed=21)
        cache = tmp_path / "asr.json"
        first = measure_asr_service(corpus=tiny, cache_path=cache)
        assert cache.exists()
        second = measure_asr_service(cache_path=cache)
        assert second.request_ids == first.request_ids

    def test_ic_builder(self, ic_measurements):
        assert ic_measurements.service == "ic_cpu"
        assert len(ic_measurements.versions) == 5
        assert set(np.unique(ic_measurements.error)) <= {0.0, 1.0}

    def test_ic_gpu_builder_uses_gpu_instances(self, ic_gpu_measurements):
        assert ic_gpu_measurements.instance_for(
            ic_gpu_measurements.versions[0]
        ).is_gpu

    def test_ic_builder_validation(self, tmp_path):
        with pytest.raises(ValueError):
            measure_ic_service(10, device="tpu")
        # An existing cache does not excuse an unknown device.
        cache = tmp_path / "ic.json"
        measure_ic_service(10, cache_path=cache)
        with pytest.raises(ValueError, match="device"):
            measure_ic_service(10, device="tpu", cache_path=cache)
