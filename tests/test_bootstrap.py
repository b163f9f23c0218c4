"""Bootstrap interval construction, quantile convention, determinism."""

import math
from unittest import mock

import numpy as np
import pytest

from opeci import (
    ConfidenceInterval,
    TupleDataset,
    ValidationError,
    quantile,
)
from opeci import bootstrap
from opeci.bootstrap import bootstrap_replicas, interval_from_replicas

from _oracles import loop_mean_replicas


def mean_interval(values, alpha, b, rng_seed):
    return interval_from_replicas(*bootstrap_replicas(values, b, rng_seed), alpha)


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
        for values in (np.array([3.0]), np.full(20, 3.0)):
            ci = mean_interval(values, 0.05, 50, rng_seed=0)
            assert ci.lower == ci.upper == ci.point_estimate == 3.0
            assert ci.confidence == 0.95

    def test_tuple_data_rejected(self):
        # DM replicas come only from dm_bootstrap_replicas
        data = TupleDataset.from_tuples([(0, 0, 0, 3.0, 0)], 1, 1)
        with pytest.raises(ValidationError, match="cannot resample a TupleDataset"):
            bootstrap_replicas(data, 50, rng_seed=0)

    @pytest.mark.parametrize("n, b", [(1, 150), (7, 150), (2000, 150), (5106, 150), (131073, 5)])
    def test_equals_loop_of_means_bit_for_bit(self, n, b):
        # 2000 and 5106 values span several blocks, 131073 takes one row per block
        values = np.random.default_rng(n).lognormal(size=n)
        point, diffs = bootstrap_replicas(values, b, rng_seed=("loop", n))
        ref_point, ref_diffs = loop_mean_replicas(values, b, ("loop", n))
        assert point == ref_point
        assert np.array_equal(diffs, ref_diffs)

    def test_shift_equivariance_exact(self):
        values = np.random.default_rng(2).normal(size=40)
        base = mean_interval(values, 0.1, 300, rng_seed=3)
        shifted = mean_interval(values + 11.0, 0.1, 300, rng_seed=3)
        assert shifted.lower - base.lower == pytest.approx(11.0, abs=1e-12)
        assert shifted.upper - base.upper == pytest.approx(11.0, abs=1e-12)

    def test_nesting_of_confidence_levels(self):
        values = np.random.default_rng(4).normal(size=60)
        point, diffs = bootstrap_replicas(values, 400, rng_seed=5)
        wide = interval_from_replicas(point, diffs, 0.05)
        narrow = interval_from_replicas(point, diffs, 0.2)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_determinism_bit_for_bit(self):
        values = np.random.default_rng(6).normal(size=30)
        a = mean_interval(values, 0.1, 200, rng_seed=7)
        b = mean_interval(values, 0.1, 200, rng_seed=7)
        assert (a.lower, a.upper, a.point_estimate) == (b.lower, b.upper, b.point_estimate)

    def test_non_finite_replica_named(self):
        # the values cancel in the original data; a replica drawing one twice overflows
        values = np.array([1e308, -1e308])
        _, ref_diffs = loop_mean_replicas(values, 50, 12)
        first = int(np.flatnonzero(~np.isfinite(ref_diffs))[0])
        with pytest.raises(ValidationError, match=f"bootstrap replica {first} is not finite"):
            bootstrap_replicas(values, 50, rng_seed=12)

    @pytest.mark.parametrize("n", [7, 2000, 5106])
    def test_chunking_cannot_change_results(self, n):
        values = np.linspace(-1.0, 1.0, n) ** 3
        whole = bootstrap_replicas(values, 23, rng_seed=("chunks", n))
        for rows in (1, 2, 5):
            with mock.patch.object(bootstrap, "_CHUNK_BYTES", 8 * n * rows):
                chunked = bootstrap_replicas(values, 23, rng_seed=("chunks", n))
            assert chunked[0] == whole[0]
            assert np.array_equal(chunked[1], whole[1])

    def test_argument_validation(self):
        values = np.arange(5.0)
        point, diffs = bootstrap_replicas(values, 10, 0)
        with pytest.raises(ValidationError):
            interval_from_replicas(point, diffs, 0.0)
        with pytest.raises(ValidationError, match="b must be >= 2"):
            bootstrap_replicas(values, 1, 0)

    def test_mean_bootstrap_coverage_smoke(self):
        # small-scale calibration check; the full oracle-sized run lives in
        # the acceptance suite
        rng = np.random.default_rng(11)
        trials, n = 300, 400
        covered = 0
        for k in range(trials):
            sample = (rng.random(n) < 0.5).astype(float)
            ci = mean_interval(sample, 0.1, 200, rng_seed=("cov", k))
            covered += ci.lower <= 0.5 <= ci.upper
        assert 0.84 <= covered / trials <= 0.96


class TestConfidenceInterval:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ConfidenceInterval(1.0, 0.0, 0.5, 0.9)
        with pytest.raises(ValidationError):
            ConfidenceInterval(0.0, 1.0, 0.5, 1.0)

    def test_nan_rejected_infinities_allowed(self):
        for bounds in ((math.nan, 1.0, 0.5), (0.0, math.nan, 0.5), (0.0, 1.0, math.nan)):
            with pytest.raises(ValidationError, match="NaN"):
                ConfidenceInterval(*bounds, 0.9)
        ci = ConfidenceInterval(-math.inf, math.inf, 0.5, 0.9)
        assert ci.contains(1e300)

    def test_width_and_contains(self):
        ci = ConfidenceInterval(-1.0, 3.0, 1.0, 0.9)
        assert ci.width == 4.0
        assert ci.contains(0.0) and not ci.contains(4.0)
