"""Equivalence tests: the outcome matrix's blocked bootstrap vs the
per-trial reference.

The outcome matrix exists purely for speed; these tests pin its
contract — for the same seed it must reproduce the per-trial loop's
results exactly (trial metrics, worst-case estimates and emitted rule
tables), drawing each trial once, across all four policy kinds and the
threshold grid.
The per-trial side is ``tests/oracle/rulegen_reference.py``, which shares
no code with ``repro.core.bootstrap``; the sample-size mutants below show
that a change to the fast path's trial shape is caught.
"""

import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.contract import RULEGEN_SAMPLE_FRACTION
from repro.core import bootstrap, rule_generator
from repro.core.bootstrap import TRIAL_BLOCK, bootstrap_configurations
from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.metrics import build_pricing
from repro.core.outcome_matrix import OutcomeMatrix
from repro.core.policies import EnsemblePolicy, SingleVersionPolicy
from repro.core.rule_generator import RoutingRuleGenerator
from repro.service import measure_ic_service
from repro.stats.confidence import ConfidenceTest

from oracle.rulegen_reference import reference_results, score_trial

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


def _reference_scores(measurements, configuration, indices):
    pricing = build_pricing(measurements)
    baseline = measurements.most_accurate_version()
    return [
        score_trial(
            measurements, configuration, row, pricing=pricing, baseline_version=baseline
        )
        for row in indices
    ]


class TestTrialMetricsEquivalence:
    def test_matches_the_reference_for_every_configuration(self, space, matrix):
        """Vectorized per-trial metrics == the reference's per-trial score."""
        measurements, configurations = space
        rng = np.random.default_rng(123)
        kinds_seen = set()
        for configuration in configurations:
            kinds_seen.add(configuration.kind)
            indices = np.stack(
                [
                    rng.choice(measurements.n_requests, size=200, replace=False)
                    for _ in range(4)
                ]
            )
            block = matrix.evaluate(
                matrix.columns_for(configuration.config_id), indices
            )
            scores = _reference_scores(measurements, configuration, indices)
            for row, scalar in enumerate(scores):
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
        rng = np.random.default_rng(7)
        for configuration in configurations[:8]:
            indices = rng.choice(measurements.n_requests, size=200, replace=False)
            block = matrix.evaluate(
                matrix.columns_for(configuration.config_id), indices
            )
            (scalar,) = _reference_scores(measurements, configuration, [indices])
            assert float(block.error_degradation[0]) == scalar.error_degradation
            assert float(block.mean_response_time_s[0]) == scalar.mean_response_time_s
            assert float(block.mean_invocation_cost[0]) == scalar.mean_invocation_cost

    def test_single_trial_vector_accepted(self, space, matrix):
        _, configurations = space
        columns = matrix.columns_for(configurations[0].config_id)
        metrics = matrix.evaluate(columns, np.arange(50))
        assert metrics.error_degradation.shape == (1,)

    def test_rejects_empty_and_unknown(self, space, matrix):
        _, configurations = space
        columns = matrix.columns_for(configurations[0].config_id)
        with pytest.raises(ValueError):
            matrix.evaluate(columns, np.empty((2, 0), dtype=int))
        with pytest.raises(KeyError):
            matrix.columns_for("cfg_nope")


class TestBootstrapEquivalence:
    def test_estimates_match(self, space, matrix):
        """The blocked bootstrap and the per-trial reference agree on every
        estimate field and the trial count."""
        measurements, configurations = space
        kw = dict(confidence=0.95, min_trials=6, max_trials=25)
        for configuration in configurations:
            rng_a = np.random.default_rng(42)
            rng_b = np.random.default_rng(42)
            scalar = reference_results(measurements, [configuration], seed=rng_a, **kw)
            fast = bootstrap_configurations(
                matrix, [configuration], confidence_test=ConfidenceTest(**kw), rng=rng_b
            )
            assert fast == scalar

    def test_small_trial_blocks_change_nothing(self, space, matrix, monkeypatch):
        """The block size is a throughput knob only."""
        _, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        results = []
        for trial_block in (1, 3, 64):
            monkeypatch.setattr(bootstrap, "TRIAL_BLOCK", trial_block)
            results.append(
                bootstrap_configurations(
                    matrix,
                    [configurations[5]],
                    confidence_test=test,
                    rng=np.random.default_rng(9),
                )
            )
        assert all(r == results[0] for r in results[1:])


#: Sample fractions of the generator-equivalence family: the default, one
#: whose sample (2 000 rows x 0.0263 = 52.6) rounds up, and one whose
#: sample falls under the floor of two rows.
SAMPLE_FRACTIONS = (RULEGEN_SAMPLE_FRACTION, 0.0263, 0.0006)


class TestGeneratorEquivalence:
    @pytest.fixture(scope="class", params=SAMPLE_FRACTIONS)
    def generators(self, request, space):
        measurements, configurations = space
        kw = dict(
            confidence=0.999,
            seed=5,
            min_trials=8,
            max_trials=30,
            sample_fraction=request.param,
        )
        fast = RoutingRuleGenerator(measurements, configurations, **kw)
        # generate() is a function of (configurations, results) alone, so
        # the reference side is a generator carrying the reference's
        # results.
        legacy = RoutingRuleGenerator(measurements, configurations, **kw)
        legacy.results = reference_results(measurements, configurations, **kw)
        return legacy, fast

    def test_worst_case_estimates_match(self, generators):
        legacy, fast = generators
        assert fast.results == legacy.results

    def test_rule_tables_identical(self, generators):
        """The emitted rule tables — the generator's actual product — are
        identical for both loops, for both objectives."""
        legacy, fast = generators
        for objective in ("response-time", "cost"):
            table_a = legacy.generate([0.0, 0.01, 0.05, 0.10], objective)
            table_b = fast.generate([0.0, 0.01, 0.05, 0.10], objective)
            assert {
                t: c.config_id for t, c in table_a.rules.items()
            } == {t: c.config_id for t, c in table_b.rules.items()}

    @pytest.mark.parametrize("trial_block", [1, 3, TRIAL_BLOCK])
    def test_the_stream_draws_each_trial_once(self, space, trial_block, monkeypatch):
        """One trial stream serves the whole design space: the trials past
        a configuration's stop are the next configuration's first.
        Estimates equal the reference's."""
        measurements, configurations = space
        kw = dict(confidence=0.99, min_trials=8, max_trials=150)
        stream_rng, oracle_rng = _CountingGenerator(5), _CountingGenerator(5)
        monkeypatch.setattr(bootstrap, "TRIAL_BLOCK", trial_block)
        estimates = bootstrap_configurations(
            OutcomeMatrix.build(measurements, configurations),
            configurations,
            confidence_test=ConfidenceTest(**kw),
            rng=stream_rng,
        )
        oracle = reference_results(measurements, configurations, seed=oracle_rng, **kw)
        assert estimates == oracle

        trials = sum(e.n_trials for e in oracle)
        assert oracle_rng.draws == trials
        # Every trial is drawn once; only the last batch's unused trials
        # are drawn on top, less than one batch.
        assert 0 <= stream_rng.draws - trials < max(kw["min_trials"], trial_block)
        if trial_block == 1:
            assert stream_rng.draws == trials  # a block of one is never cut
        if trial_block == TRIAL_BLOCK:
            generator = RoutingRuleGenerator(measurements, configurations, seed=5, **kw)
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


#: Mutants of the blocked bootstrap's sample size: ``(site, mutated site)``.
_SAMPLE_SIZE_MUTANTS = {
    "floor-of-three": (
        "max(2, int(round(n * sample_fraction)))",
        "max(3, int(round(n * sample_fraction)))",
    ),
    "floor-not-round": (
        "max(2, int(round(n * sample_fraction)))",
        "max(2, int(np.floor(n * sample_fraction)))",
    ),
}


def _mutant_bootstrap(old, new):
    """``bootstrap_configurations`` recompiled with one edit, applied at its
    one site, over the real module's globals."""
    source = inspect.getsource(bootstrap.bootstrap_configurations)
    assert source.count(old) == 1, f"mutation site not found once: {old!r}"
    namespace = dict(vars(bootstrap))
    exec(compile(source.replace(old, new), bootstrap.__file__, "exec"), namespace)
    return namespace["bootstrap_configurations"]


@pytest.mark.parametrize("mutant", sorted(_SAMPLE_SIZE_MUTANTS))
def test_generator_equivalence_catches_sample_size_mutants(
    mutant, space, monkeypatch
):
    """Teeth: the reference computes its own sample size, so a generator
    whose trials are drawn one row too many or too few no longer matches
    it at some fraction of the family."""
    measurements, configurations = space
    monkeypatch.setattr(
        rule_generator,
        "bootstrap_configurations",
        _mutant_bootstrap(*_SAMPLE_SIZE_MUTANTS[mutant]),
    )
    caught = []
    for sample_fraction in SAMPLE_FRACTIONS:
        kw = dict(
            confidence=0.999,
            seed=5,
            min_trials=8,
            max_trials=30,
            sample_fraction=sample_fraction,
        )
        generator = RoutingRuleGenerator(measurements, configurations, **kw)
        reference = reference_results(measurements, configurations, **kw)
        caught.append(generator.results != reference)
    assert any(caught), f"the {mutant} mutant survived every sample fraction"


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
        block = min(TRIAL_BLOCK, self.MAX_TRIALS)
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


class _ReweightedSingle(SingleVersionPolicy):
    """A subclass of an expandable kind that overrides ``evaluate``."""

    def evaluate(self, measurements, indices=None):
        return super().evaluate(measurements, indices)


class TestUnsupportedPolicies:
    @pytest.mark.parametrize(
        "policy, type_name",
        [
            (_OpaquePolicy("ic_cpu_vgg16"), "_OpaquePolicy"),
            (_ReweightedSingle("ic_cpu_vgg16"), "_ReweightedSingle"),
        ],
        ids=["custom-evaluate", "subclass"],
    )
    def test_matrix_and_generator_refuse_unsupported(self, space, policy, type_name):
        """A policy the matrix cannot expand is refused when the matrix
        is built, naming the configuration and the policy type, and so
        the generator refuses it at construction."""
        measurements, configurations = space
        mixed = [*configurations[:3], EnsembleConfiguration("cfg_opq", policy)]
        match = f"'cfg_opq'.*{type_name}"
        with pytest.raises(ValueError, match=match):
            OutcomeMatrix.build(measurements, mixed)
        with pytest.raises(ValueError, match=match):
            RoutingRuleGenerator(measurements, mixed, min_trials=5, max_trials=12)
