"""Bootstrap interval construction, quantile convention, determinism."""

import math
from unittest import mock

import numpy as np
import pytest

from opeci import (
    ConfidenceInterval,
    TupleDataset,
    ValidationError,
    bootstrap_interval,
    quantile,
)
from opeci import empirical
from opeci.bootstrap import bootstrap_replicas, interval_from_replicas
from opeci.empirical import resample_indices


def mean_functional(values):
    return float(np.mean(values))


class TestQuantile:
    def test_median_of_three(self):
        assert quantile([1, 2, 3], 0.5) == 2.0

    def test_extremes(self):
        assert quantile([1, 2, 3], 0.0) == 1.0
        assert quantile([1, 2, 3], 1.0) == 3.0

    def test_interpolation_by_hand(self):
        # position q*(m-1) = 0.25 between 10 and 20
        assert quantile([10, 20], 0.25) == 12.5

    def test_monotone_in_q(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=57)
        qs = np.linspace(0, 1, 31)
        results = [quantile(values, q) for q in qs]
        assert all(a <= b + 1e-15 for a, b in zip(results, results[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            quantile([], 0.5)
        with pytest.raises(ValidationError):
            quantile([1.0], 1.5)


class TestBootstrapInterval:
    def test_single_point_dataset_degenerate(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 3.0, 0)], 1, 1)
        ci = bootstrap_interval(data, lambda d: float(d.r.mean()), 0.1, 50, rng_seed=0)
        assert ci.lower == ci.upper == ci.point_estimate == 3.0

    def test_constant_functional(self):
        values = np.arange(20.0)
        ci = bootstrap_interval(values, lambda v: 7.0, 0.05, 100, rng_seed=1)
        assert ci.lower == ci.upper == 7.0
        assert ci.confidence == 0.95
        assert ci.replicas == 100

    def test_shift_equivariance_exact(self):
        values = np.random.default_rng(2).normal(size=40)
        base = bootstrap_interval(values, mean_functional, 0.1, 300, rng_seed=3)
        shifted = bootstrap_interval(
            values, lambda v: mean_functional(v) + 11.0, 0.1, 300, rng_seed=3
        )
        assert shifted.lower - base.lower == pytest.approx(11.0, abs=1e-12)
        assert shifted.upper - base.upper == pytest.approx(11.0, abs=1e-12)

    def test_nesting_of_confidence_levels(self):
        values = np.random.default_rng(4).normal(size=60)
        point, diffs = bootstrap_replicas(values, mean_functional, 400, rng_seed=5)
        wide = interval_from_replicas(point, diffs, 0.05)
        narrow = interval_from_replicas(point, diffs, 0.2)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_determinism_bit_for_bit(self):
        values = np.random.default_rng(6).normal(size=30)
        a = bootstrap_interval(values, mean_functional, 0.1, 200, rng_seed=7)
        b = bootstrap_interval(values, mean_functional, 0.1, 200, rng_seed=7)
        assert (a.lower, a.upper, a.point_estimate) == (b.lower, b.upper, b.point_estimate)

    def test_one_sided_intervals(self):
        values = np.random.default_rng(8).normal(size=50)
        lower_ci = bootstrap_interval(values, mean_functional, 0.1, 200, 9, side="lower")
        upper_ci = bootstrap_interval(values, mean_functional, 0.1, 200, 9, side="upper")
        assert lower_ci.upper == math.inf
        assert upper_ci.lower == -math.inf
        # the one-sided 1-alpha bound is the two-sided 1-2*alpha endpoint
        two = bootstrap_interval(values, mean_functional, 0.2, 200, 9)
        assert lower_ci.lower == pytest.approx(two.lower, abs=1e-15)
        assert upper_ci.upper == pytest.approx(two.upper, abs=1e-15)

    def test_replica_failure_carries_index(self):
        values = np.arange(10.0)
        calls = {"count": -1}

        def flaky(v):
            calls["count"] += 1
            if calls["count"] == 3:
                raise ValueError("boom")
            return float(v.mean())

        with pytest.raises(RuntimeError, match="replica 2"):
            bootstrap_interval(values, flaky, 0.1, 20, rng_seed=10)

    def test_non_finite_replica_named(self):
        # the values cancel in the original data; a replica drawing one twice overflows
        values = np.array([1e308, -1e308])
        pool, draws = resample_indices(values, 12, 50)
        first = next(k for k, idx in enumerate(draws) if len(set(pool[idx].tolist())) == 1)

        def mean(v):
            with np.errstate(over="ignore"):
                return float(np.mean(v))

        with pytest.raises(ValidationError, match=f"bootstrap replica {first} is not finite"):
            bootstrap_replicas(values, mean, 50, rng_seed=12)

    @pytest.mark.parametrize("n", [7, 2000, 5106])
    def test_chunking_cannot_change_results(self, n):
        values = np.linspace(-1.0, 1.0, n) ** 3
        whole = bootstrap_replicas(values, mean_functional, 23, rng_seed=("chunks", n))
        for rows in (1, 2, 5):
            with mock.patch.object(empirical, "_CHUNK_BYTES", 8 * n * rows):
                chunked = bootstrap_replicas(values, mean_functional, 23, rng_seed=("chunks", n))
            assert chunked[0] == whole[0]
            assert np.array_equal(chunked[1], whole[1])

    def test_argument_validation(self):
        values = np.arange(5.0)
        with pytest.raises(ValidationError):
            bootstrap_interval(values, mean_functional, 0.0, 10, 0)
        with pytest.raises(ValidationError):
            bootstrap_interval(values, mean_functional, 0.1, 1, 0)
        with pytest.raises(ValidationError):
            bootstrap_interval(values, mean_functional, 0.1, 10, 0, side="sideways")

    def test_mean_bootstrap_coverage_smoke(self):
        # small-scale calibration check; the full oracle-sized run lives in
        # the acceptance suite
        rng = np.random.default_rng(11)
        trials, n = 300, 400
        covered = 0
        for k in range(trials):
            sample = (rng.random(n) < 0.5).astype(float)
            ci = bootstrap_interval(sample, mean_functional, 0.1, 200, rng_seed=("cov", k))
            covered += ci.lower <= 0.5 <= ci.upper
        assert 0.84 <= covered / trials <= 0.96


class TestConfidenceInterval:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ConfidenceInterval(1.0, 0.0, 0.5, 0.9, 10)
        with pytest.raises(ValidationError):
            ConfidenceInterval(0.0, 1.0, 0.5, 1.0, 10)

    def test_nan_rejected_infinities_allowed(self):
        for bounds in ((math.nan, 1.0, 0.5), (0.0, math.nan, 0.5), (0.0, 1.0, math.nan)):
            with pytest.raises(ValidationError, match="NaN"):
                ConfidenceInterval(*bounds, 0.9, 10)
        ci = ConfidenceInterval(-math.inf, math.inf, 0.5, 0.9, 10)
        assert ci.contains(1e300)

    def test_width_and_contains(self):
        ci = ConfidenceInterval(-1.0, 3.0, 1.0, 0.9, 10)
        assert ci.width == 4.0
        assert ci.contains(0.0) and not ci.contains(4.0)
