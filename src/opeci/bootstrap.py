"""Non-parametric basic (reverse-percentile) bootstrap.

``bootstrap_replicas`` bootstraps the mean of a value array, such as
per-episode IS or DR estimates: each replica averages a uniform
with-replacement resample of the n values.  All b replicas draw their indices
from one generator seeded (master seed, "indices"), in (rows, n) blocks of
about ``_CHUNK_BYTES`` that do not change the draws.  DM replicas come from
``dm.dm_bootstrap_replicas``; ``interval_from_replicas`` inverts either kind
into a two-sided interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .seeding import as_generator

_CHUNK_BYTES = 1 << 20  # working memory of one block of bootstrap replicas


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    point_estimate: float
    confidence: float

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError("confidence must lie in (0, 1)")
        if math.isnan(self.lower) or math.isnan(self.upper) or math.isnan(self.point_estimate):
            raise ValidationError(
                f"interval ({self.lower}, {self.upper}) around {self.point_estimate} holds NaN"
            )
        if self.lower > self.upper:
            raise ValidationError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def quantile(values, q: float) -> float:
    """Order statistic with linear interpolation at position q*(m-1).

    This is the convention all interval endpoints use; it is pinned so that
    coverage numbers are reproducible.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    return float(np.quantile(arr, q, method="linear"))


def check_replicas(point: float, diffs: np.ndarray) -> None:
    """Reject a non-finite point estimate or replica, naming the first bad replica."""
    if not math.isfinite(point):
        raise ValidationError(f"estimate on the original data is not finite ({point})")
    bad = np.flatnonzero(~np.isfinite(diffs))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"bootstrap replica {k} is not finite (difference {diffs[k]})")


def bootstrap_replicas(values, b: int, rng_seed):
    """Mean of the value array ``values`` plus the b recentered replica means.

    Computing these once lets several confidence levels share one set of
    resamples.
    """
    if not isinstance(values, np.ndarray):
        raise ValidationError(f"cannot resample a {type(values).__name__}")
    n = len(values)
    if n < 1:
        raise ValidationError("cannot resample an empty dataset")
    if b < 2:
        raise ValidationError("b must be >= 2")
    rng, rows = as_generator((rng_seed, "indices")), max(1, _CHUNK_BYTES // (8 * n))
    diffs = np.empty(b)
    with np.errstate(over="ignore", invalid="ignore"):  # check_replicas names a non-finite one
        point = float(values.mean())
        for start in range(0, b, rows):
            block = rng.integers(0, n, size=(min(rows, b - start), n))
            diffs[start:start + len(block)] = values[block].mean(axis=1) - point
    check_replicas(point, diffs)
    return point, diffs


def interval_from_replicas(point: float, diffs: np.ndarray, alpha: float) -> ConfidenceInterval:
    """Invert recentered replica quantiles into a two-sided 1 - alpha interval
    around the point.  Either endpoint at 2 * alpha is the one-sided 1 - alpha
    bound on its side."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    lower = point - quantile(diffs, 1.0 - alpha / 2.0)
    upper = point - quantile(diffs, alpha / 2.0)
    return ConfidenceInterval(lower, upper, point, 1.0 - alpha)
