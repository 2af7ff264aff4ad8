"""Tests for service requests, instance catalogue and pricing."""

import pytest

from repro.service.instances import INSTANCE_CATALOG, InstanceType, get_instance_type
from repro.service.pricing import PricingModel
from repro.service.request import Objective, ServiceRequest, ServiceResponse


class TestObjective:
    def test_parse_response_time(self):
        assert Objective.from_header("response-time") is Objective.RESPONSE_TIME

    def test_parse_cost_case_insensitive(self):
        assert Objective.from_header("  COST ") is Objective.COST

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            Objective.from_header("latency")


class TestServiceRequest:
    def test_defaults(self):
        request = ServiceRequest(request_id="r1", payload="data")
        assert request.tolerance == 0.0
        assert request.objective is Objective.RESPONSE_TIME

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            ServiceRequest(request_id="r1", payload=None, tolerance=-0.1)

    def test_from_headers_parses_annotation(self):
        request = ServiceRequest.from_headers(
            "r2",
            "payload",
            {"Tolerance": "0.01", "Objective": "cost", "X-Consumer": "app-7"},
        )
        assert request.tolerance == pytest.approx(0.01)
        assert request.objective is Objective.COST
        assert request.metadata["X-Consumer"] == "app-7"

    def test_from_headers_defaults_when_missing(self):
        request = ServiceRequest.from_headers("r3", None, {})
        assert request.tolerance == 0.0
        assert request.objective is Objective.RESPONSE_TIME

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="finite"):
            ServiceRequest(request_id="r1", payload=None, tolerance=tolerance)

    @pytest.mark.parametrize(
        "key", ["Tolerance", "tolerance", "TOLERANCE", "  ToLeRaNcE  "]
    )
    def test_from_headers_key_case_and_whitespace(self, key):
        request = ServiceRequest.from_headers("r4", None, {key: "0.05"})
        assert request.tolerance == pytest.approx(0.05)
        # The recognised header is consumed, never echoed into metadata.
        assert request.metadata == {}

    def test_from_headers_value_whitespace(self):
        request = ServiceRequest.from_headers(
            "r4", None, {"Tolerance": "  0.05  ", "Objective": "  Cost "}
        )
        assert request.tolerance == pytest.approx(0.05)
        assert request.objective is Objective.COST

    def test_from_headers_malformed_tolerance_names_the_header(self):
        with pytest.raises(ValueError, match="Tolerance header"):
            ServiceRequest.from_headers("r5", None, {"Tolerance": "abc"})
        with pytest.raises(ValueError, match="Tolerance header"):
            ServiceRequest.from_headers("r5", None, {"Tolerance": ""})
        with pytest.raises(ValueError, match="Tolerance header"):
            ServiceRequest.from_headers("r5", None, {"Tolerance": None})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_from_headers_rejects_unroutable_tolerances(self, value):
        # Parses as a float, but fails request validation.
        with pytest.raises(ValueError):
            ServiceRequest.from_headers("r6", None, {"Tolerance": value})

    @pytest.mark.parametrize(
        "headers",
        [
            {"Tolerance": "0.01", " tolerance ": "0.05"},
            {"Objective": "cost", "OBJECTIVE": "response-time"},
        ],
    )
    def test_from_headers_rejects_duplicate_annotation_headers(self, headers):
        with pytest.raises(ValueError, match="duplicate"):
            ServiceRequest.from_headers("r7", None, headers)

    def test_from_headers_metadata_passthrough_preserves_casing(self):
        headers = {
            "Tolerance": "0.01",
            "X-Consumer": "app-7",
            "x-trace-id": "abc123",
            "Deadline-Propagation": "off",
        }
        request = ServiceRequest.from_headers("r8", None, headers)
        assert request.metadata == {
            "X-Consumer": "app-7",
            "x-trace-id": "abc123",
            "Deadline-Propagation": "off",
        }


class TestInstanceCatalog:
    def test_known_types(self):
        assert "cpu.medium" in INSTANCE_CATALOG
        assert get_instance_type("gpu.k80").is_gpu

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            get_instance_type("tpu.v4")

    def test_price_per_second(self):
        inst = get_instance_type("cpu.medium")
        assert inst.price_per_second == pytest.approx(inst.hourly_price / 3600)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType(name="bad", hourly_price=0.0, speed_factor=1.0)
        with pytest.raises(ValueError):
            InstanceType(name="bad", hourly_price=1.0, speed_factor=0.0)


class TestPricingModel:
    @pytest.fixture()
    def pricing(self):
        return PricingModel(
            {
                "fast": get_instance_type("cpu.medium"),
                "slow": get_instance_type("cpu.large"),
            },
            per_request_fee=0.001,
            markup=2.0,
        )

    def test_compute_cost(self, pricing):
        expected = 10.0 * get_instance_type("cpu.medium").price_per_second
        assert pricing.compute_cost("fast", 10.0) == pytest.approx(expected)

    def test_compute_cost_rejects_negative(self, pricing):
        with pytest.raises(ValueError):
            pricing.compute_cost("fast", -1.0)

    def test_unknown_version(self, pricing):
        with pytest.raises(KeyError):
            pricing.compute_cost("huge", 1.0)

    def test_request_cost_includes_fee_and_markup(self, pricing):
        breakdown = pricing.request_cost({"fast": 2.0})
        iaas = 2.0 * get_instance_type("cpu.medium").price_per_second
        assert breakdown.iaas_cost == pytest.approx(iaas)
        assert breakdown.invocation_cost == pytest.approx(0.001 + 2.0 * iaas)
        assert breakdown.n_requests == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PricingModel({}, per_request_fee=0.0)
        with pytest.raises(ValueError):
            PricingModel({"v": get_instance_type("cpu.medium")}, markup=0.0)
        nan = float("nan")
        with pytest.raises(ValueError, match="per_request_fee"):
            PricingModel({"v": get_instance_type("cpu.medium")}, per_request_fee=nan)
        with pytest.raises(ValueError, match="markup"):
            PricingModel({"v": get_instance_type("cpu.medium")}, markup=nan)


class TestServiceResponse:
    def test_fields(self):
        response = ServiceResponse(
            request_id="r1",
            result="hello",
            versions_used=("v1",),
            response_time_s=0.1,
            invocation_cost=0.002,
            tier=0.01,
            confidence=0.9,
        )
        assert response.result == "hello"
        assert response.tier == 0.01
