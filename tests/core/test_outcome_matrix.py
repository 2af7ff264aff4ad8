"""Equivalence tests: the vectorized outcome-matrix path vs the scalar oracle.

The outcome matrix exists purely for speed; these tests pin its
contract — for the same seed it must reproduce the scalar path's
results exactly (trial metrics, worst-case estimates, rng consumption and
emitted rule tables), across all four policy kinds and the threshold grid.
The generator-level scalar side is ``tests/oracle/rulegen_reference.py``.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.contract import RULEGEN_SAMPLE_FRACTION
from repro.core import bootstrap
from repro.core.bootstrap import (
    DEFAULT_TRIAL_BLOCK,
    bootstrap_configuration,
    bootstrap_configurations,
)
from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.metrics import build_pricing
from repro.core.outcome_matrix import OutcomeMatrix
from repro.core.policies import EnsemblePolicy, SingleVersionPolicy
from repro.core.rule_generator import RoutingRuleGenerator
from repro.core.simulator import simulate
from repro.service import measure_ic_service
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

from oracle.rulegen_reference import reference_results

TOLERANCE = 1e-12


class _CountingGenerator(np.random.Generator):
    """A PCG64 generator that counts ``choice`` calls (one per trial draw)."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return super().choice(*args, **kwargs)


@pytest.fixture(scope="module")
def space(request):
    """Measurements plus a design space covering all four policy kinds."""
    measurements = request.getfixturevalue("ic_measurements")
    configurations = enumerate_configurations(
        measurements,
        thresholds=(0.4, 0.55, 0.7),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )
    return measurements, configurations


@pytest.fixture(scope="module")
def matrix(space):
    measurements, configurations = space
    return OutcomeMatrix.build(measurements, configurations)


class TestTrialMetricsEquivalence:
    def test_matches_simulate_for_every_configuration(self, space, matrix):
        """Vectorized per-trial metrics == scalar simulate(), bit for bit."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        rng = np.random.default_rng(123)
        kinds_seen = set()
        for configuration in configurations:
            kinds_seen.add(configuration.kind)
            indices = np.stack(
                [
                    subsample_indices(measurements.n_requests, 200, rng=rng)
                    for _ in range(4)
                ]
            )
            block = matrix.trial_metrics(configuration.config_id, indices)
            for row in range(indices.shape[0]):
                scalar = simulate(
                    measurements,
                    configuration,
                    indices=indices[row],
                    pricing=pricing,
                    baseline_version=baseline,
                )
                assert block.error_degradation[row] == pytest.approx(
                    scalar.error_degradation, abs=TOLERANCE
                )
                assert block.mean_response_time_s[row] == pytest.approx(
                    scalar.mean_response_time_s, abs=TOLERANCE
                )
                assert block.mean_invocation_cost[row] == pytest.approx(
                    scalar.mean_invocation_cost, rel=TOLERANCE
                )
        assert kinds_seen == {"single", "seq", "conc", "et"}

    def test_trial_metrics_bitwise_identical(self, space, matrix):
        """On this platform the fast path is exactly identical, which is
        what keeps the bootstrap's stopping decisions aligned."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        rng = np.random.default_rng(7)
        for configuration in configurations[:8]:
            indices = subsample_indices(measurements.n_requests, 200, rng=rng)
            block = matrix.trial_metrics(configuration.config_id, indices)
            scalar = simulate(
                measurements,
                configuration,
                indices=indices,
                pricing=pricing,
                baseline_version=baseline,
            )
            assert float(block.error_degradation[0]) == scalar.error_degradation
            assert float(block.mean_response_time_s[0]) == scalar.mean_response_time_s
            assert float(block.mean_invocation_cost[0]) == scalar.mean_invocation_cost

    def test_single_trial_vector_accepted(self, space, matrix):
        measurements, configurations = space
        metrics = matrix.trial_metrics(
            configurations[0].config_id, np.arange(50)
        )
        assert metrics.error_degradation.shape == (1,)

    def test_rejects_empty_and_unknown(self, space, matrix):
        _, configurations = space
        with pytest.raises(ValueError):
            matrix.trial_metrics(
                configurations[0].config_id, np.empty((2, 0), dtype=int)
            )
        with pytest.raises(KeyError):
            matrix.columns_for("cfg_nope")


class TestBootstrapEquivalence:
    def test_estimates_and_rng_state_match(self, space, matrix):
        """Fast and scalar bootstraps agree on every estimate field, the
        trial count, and — critically — the generator state they leave
        behind (so later configurations see identical draws)."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        for configuration in configurations:
            rng_a = np.random.default_rng(42)
            rng_b = np.random.default_rng(42)
            scalar = bootstrap_configuration(
                measurements,
                configuration,
                confidence_test=test,
                rng=rng_a,
                pricing=pricing,
                baseline_version=baseline,
            )
            fast = bootstrap_configuration(
                measurements,
                configuration,
                confidence_test=test,
                rng=rng_b,
                pricing=pricing,
                baseline_version=baseline,
                outcome_matrix=matrix,
            )
            assert fast.n_trials == scalar.n_trials
            assert fast.error_degradation == pytest.approx(
                scalar.error_degradation, abs=TOLERANCE
            )
            assert fast.mean_response_time_s == pytest.approx(
                scalar.mean_response_time_s, abs=TOLERANCE
            )
            assert fast.mean_invocation_cost == pytest.approx(
                scalar.mean_invocation_cost, rel=TOLERANCE
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_rejects_mismatched_matrix_inputs(self, space, matrix):
        """The fast path refuses inputs the matrix was not built for."""
        measurements, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        kw = dict(confidence_test=test, outcome_matrix=matrix)
        with pytest.raises(ValueError, match="degradation_mode"):
            bootstrap_configuration(
                measurements,
                configurations[0],
                rng=np.random.default_rng(0),
                degradation_mode="absolute",
                **kw,
            )
        with pytest.raises(ValueError, match="pricing"):
            bootstrap_configuration(
                measurements,
                configurations[0],
                rng=np.random.default_rng(0),
                pricing=build_pricing(measurements, markup=5.0),
                **kw,
            )
        # an equal-valued (not identical) pricing is accepted
        bootstrap_configuration(
            measurements,
            configurations[0],
            rng=np.random.default_rng(0),
            pricing=build_pricing(measurements),
            **kw,
        )

    def test_small_trial_blocks_change_nothing(self, space, matrix):
        """The block size is a throughput knob only."""
        measurements, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        results = []
        for trial_block in (1, 3, 64):
            rng = np.random.default_rng(9)
            results.append(
                bootstrap_configuration(
                    measurements,
                    configurations[5],
                    confidence_test=test,
                    rng=rng,
                    outcome_matrix=matrix,
                    trial_block=trial_block,
                )
            )
        assert all(r == results[0] for r in results[1:])


class TestGeneratorEquivalence:
    @pytest.fixture(scope="class")
    def generators(self, space):
        measurements, configurations = space
        kw = dict(confidence=0.999, seed=5, min_trials=8, max_trials=30)
        fast = RoutingRuleGenerator(measurements, configurations, **kw)
        # generate() is a function of (configurations, results) alone, so
        # the scalar side is a generator carrying the oracle's results.
        legacy = RoutingRuleGenerator(measurements, configurations, **kw)
        legacy.results = reference_results(measurements, configurations, **kw)
        return legacy, fast

    def test_worst_case_estimates_match(self, generators):
        legacy, fast = generators
        for a, b in zip(legacy.results, fast.results):
            assert a.config_id == b.config_id
            assert a.n_trials == b.n_trials
            assert a.error_degradation == pytest.approx(
                b.error_degradation, abs=TOLERANCE
            )
            assert a.mean_response_time_s == pytest.approx(
                b.mean_response_time_s, abs=TOLERANCE
            )
            assert a.mean_invocation_cost == pytest.approx(
                b.mean_invocation_cost, rel=TOLERANCE
            )

    def test_rule_tables_identical(self, generators):
        """The emitted rule tables — the generator's actual product — are
        identical for both engines, for both objectives."""
        legacy, fast = generators
        for objective in ("response-time", "cost"):
            table_a = legacy.generate([0.0, 0.01, 0.05, 0.10], objective)
            table_b = fast.generate([0.0, 0.01, 0.05, 0.10], objective)
            assert {
                t: c.config_id for t, c in table_a.rules.items()
            } == {t: c.config_id for t, c in table_b.rules.items()}

    @pytest.mark.parametrize("trial_block", [1, 3, DEFAULT_TRIAL_BLOCK])
    def test_the_stream_draws_each_trial_once(self, space, monkeypatch, trial_block):
        """One trial stream serves the whole design space: the trials past
        a configuration's stop are the next configuration's first, also
        when that one is scalar-only, and the rng is rewound once, at the
        end.  Estimates and the final rng state equal the scalar oracle's."""
        measurements, configurations = space
        opaque = [
            EnsembleConfiguration(f"cfg_opq{i}", _OpaquePolicy(version))
            for i, version in enumerate(("ic_cpu_vgg16", "ic_cpu_squeezenet"))
        ]
        mixed = [*configurations[:4], opaque[0], *configurations[4:9], opaque[1],
                 *configurations[9:]]
        kw = dict(confidence=0.99, min_trials=8, max_trials=150)
        carried = []
        scalar_loop = bootstrap._bootstrap_scalar

        def spy(measurements, configuration, *, stream, **kwargs):
            carried.append(stream.carries)
            return scalar_loop(measurements, configuration, stream=stream, **kwargs)

        monkeypatch.setattr(bootstrap, "_bootstrap_scalar", spy)
        stream_rng, oracle_rng = _CountingGenerator(5), _CountingGenerator(5)
        estimates = bootstrap_configurations(
            measurements,
            mixed,
            confidence_test=ConfidenceTest(**kw),
            rng=stream_rng,
            pricing=build_pricing(measurements),
            outcome_matrix=OutcomeMatrix.build(measurements, mixed),
            trial_block=trial_block,
        )
        monkeypatch.undo()
        oracle = reference_results(measurements, mixed, seed=oracle_rng, **kw)
        assert estimates == oracle
        assert stream_rng.bit_generator.state == oracle_rng.bit_generator.state

        trials = sum(e.n_trials for e in oracle)
        assert oracle_rng.draws == trials
        # Every trial is drawn once; the last batch's unused trials and the
        # replay of its used ones add at most one batch, once.
        assert 0 <= stream_rng.draws - trials <= max(kw["min_trials"], trial_block)
        assert len(carried) == len(opaque)
        if trial_block == 1:
            assert stream_rng.draws == trials  # a block of one is never cut
        else:
            # some scalar-only configuration started on given-back trials
            assert any(carried)
        if trial_block == DEFAULT_TRIAL_BLOCK:
            generator = RoutingRuleGenerator(measurements, mixed, seed=5, **kw)
            assert generator.results == estimates

    def test_same_seed_same_rule_table(self, space):
        """Determinism: constructing twice with one seed gives one table."""
        measurements, configurations = space
        kw = dict(confidence=0.999, seed=5, min_trials=8, max_trials=30)
        tables = []
        for _ in range(2):
            generator = RoutingRuleGenerator(measurements, configurations, **kw)
            table = generator.generate([0.01, 0.05, 0.10], "response-time")
            tables.append(
                {t: c.config_id for t, c in table.rules.items()}
            )
        assert tables[0] == tables[1]


class TestZeroVarianceMetrics:
    """Degenerate bootstrap inputs: metrics that never vary across trials.

    A measurement table with constant per-version latency, error and
    confidence makes every subsample identical, so all three metric
    columns are zero-variance and the confidence test must fall through
    to its constant-sample rule (no division by zero anywhere on the
    path).  Both engines must agree bit-for-bit, including the trial
    count the constant rule implies.
    """

    @pytest.fixture(scope="class")
    def constant_space(self):
        from repro.service.measurement import MeasurementSet

        n = 40
        ids = tuple(f"c{i:02d}" for i in range(n))
        measurements = MeasurementSet(
            service="constant",
            request_ids=ids,
            versions=("fast", "slow"),
            error=np.column_stack([np.full(n, 0.2), np.zeros(n)]),
            latency_s=np.column_stack([np.full(n, 0.05), np.full(n, 0.4)]),
            confidence=np.column_stack([np.full(n, 0.9), np.full(n, 0.95)]),
            version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
        )
        configurations = enumerate_configurations(
            measurements, thresholds=(0.5,), fast_versions=["fast"]
        )
        return measurements, configurations

    def test_engines_agree_on_constant_metrics(self, constant_space):
        measurements, configurations = constant_space
        kwargs = dict(confidence=0.999, seed=3, min_trials=10, max_trials=60)
        vectorized = RoutingRuleGenerator(measurements, configurations, **kwargs)
        legacy = reference_results(measurements, configurations, **kwargs)
        assert len(vectorized.results) == len(legacy)
        for a, b in zip(vectorized.results, legacy):
            assert a.config_id == b.config_id
            assert a.n_trials == b.n_trials
            assert a.error_degradation == b.error_degradation
            assert a.mean_response_time_s == b.mean_response_time_s
            assert a.mean_invocation_cost == b.mean_invocation_cost
        # the constant-sample rule demands min(ceil(1/(1-0.999)), 30)
        # trials, which dominates min_trials here
        assert all(e.n_trials == 30 for e in vectorized.results)


class TestMemoryFollowsVersions:
    """The matrix holds version columns; a configuration's outcome columns
    live only while its bootstrap runs.  On this 77-configuration space an
    eager matrix would hold 375 rows of 4 000 floats (about 11 MiB)."""

    N_REQUESTS = 4000
    MAX_TRIALS = 30

    @pytest.fixture(scope="class")
    def wide_space(self):
        measurements = measure_ic_service(self.N_REQUESTS, device="cpu", seed=17)
        configurations = enumerate_configurations(
            measurements,
            thresholds=(0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8),
            fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet", "ic_cpu_alexnet"],
        )
        assert len(configurations) == 77
        return measurements, configurations

    def generator(self, space):
        measurements, configurations = space
        return RoutingRuleGenerator(
            measurements, configurations, seed=3, min_trials=8,
            max_trials=self.MAX_TRIALS,
        )

    def test_peak_is_versions_plus_one_configuration(self, wide_space):
        measurements, _ = wide_space
        n = measurements.n_requests
        sample_size = round(n * RULEGEN_SAMPLE_FRACTION)
        block = min(DEFAULT_TRIAL_BLOCK, self.MAX_TRIALS)
        floats = (
            len(measurements.versions) * 3 * n  # error, latency, confidence
            + 5 * n  # one configuration's stacked rows
            + (5 + 1) * block * sample_size  # one block's gather + indices
        )
        tracemalloc.start()
        try:
            self.generator(wide_space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Twice the formula leaves room for masks, sums and the draws'
        # scratch; the eager matrix alone was about five times this bound.
        assert peak < 2 * 8 * floats

    def test_columns_die_when_the_bootstrap_moves_on(self, wide_space, monkeypatch):
        expand = OutcomeMatrix.columns_for
        expanded = []

        def spy(matrix, config_id):
            assert all(ref() is None for ref in expanded), (
                "an earlier configuration's columns are still alive"
            )
            columns = expand(matrix, config_id)
            expanded.append(weakref.ref(columns.stacked))
            return columns

        monkeypatch.setattr(OutcomeMatrix, "columns_for", spy)
        generator = self.generator(wide_space)
        assert len(expanded) == len(generator.configurations)
        assert all(ref() is None for ref in expanded)


class _OpaquePolicy(EnsemblePolicy):
    """A policy the outcome matrix cannot expand (custom evaluate)."""

    kind = "opaque"

    def __init__(self, version: str) -> None:
        self._inner = SingleVersionPolicy(version)

    @property
    def name(self):
        return f"opaque[{self._inner.version}]"

    @property
    def versions(self):
        return self._inner.versions

    def evaluate(self, measurements, indices=None):
        return self._inner.evaluate(measurements, indices)


class TestUnsupportedPolicies:
    def test_matrix_skips_unsupported(self, space):
        measurements, _ = space
        opaque = EnsembleConfiguration("cfg_opq", _OpaquePolicy("ic_cpu_vgg16"))
        matrix = OutcomeMatrix.build(measurements, [opaque])
        assert "cfg_opq" not in matrix
        assert not OutcomeMatrix.supports(opaque.policy)

    def test_generator_falls_back_to_scalar_path(self, space):
        """A design space mixing supported and opaque policies still
        bootstraps — opaque configurations ride the scalar oracle."""
        measurements, configurations = space
        mixed = list(configurations[:3]) + [
            EnsembleConfiguration("cfg_opq", _OpaquePolicy("ic_cpu_vgg16"))
        ]
        generator = RoutingRuleGenerator(
            measurements,
            mixed,
            confidence=0.9,
            seed=3,
            min_trials=5,
            max_trials=12,
        )
        assert len(generator.results) == 4
        assert generator.estimate_for("cfg_opq").n_trials >= 5
