"""Non-parametric bias-corrected percentile bootstrap.

Generic over the estimator functional; the resampling granularity follows
the data type: tuple datasets and augmented datasets resample tuples, and
plain value arrays resample values.
Replica seeds derive from (master seed, replica index), so replicas are
order-independent and may be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import AugmentedDataset, TupleDataset, resample_tuples
from .errors import ValidationError
from .seeding import as_generator, seed_parts


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    point_estimate: float
    confidence: float
    replicas: int

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


def _resample_values(values: np.ndarray, rng_seed) -> np.ndarray:
    rng = as_generator(rng_seed)
    idx = rng.integers(0, len(values), size=len(values))
    return values[idx]


def default_resampler(data):
    if isinstance(data, (TupleDataset, AugmentedDataset)):
        return resample_tuples
    if isinstance(data, np.ndarray):
        return _resample_values
    raise ValidationError(f"no default resampler for {type(data).__name__}")


def check_replicas(point: float, diffs: np.ndarray) -> None:
    """Reject a non-finite point estimate or replica, naming the first bad replica."""
    if not math.isfinite(point):
        raise ValidationError(f"estimate on the original data is not finite ({point})")
    bad = np.flatnonzero(~np.isfinite(diffs))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"bootstrap replica {k} is not finite (difference {diffs[k]})")


def bootstrap_replicas(data, functional, b: int, rng_seed):
    """Point estimate plus the b recentered replica differences.

    Computing these once lets several confidence levels share one set of
    resamples.
    """
    if b < 2:
        raise ValidationError("b must be >= 2")
    resampler = default_resampler(data)
    parts = seed_parts(rng_seed)
    point = float(functional(data))
    diffs = np.empty(b)
    for k in range(b):
        replica = resampler(data, parts + (k,))
        try:
            diffs[k] = float(functional(replica)) - point
        except Exception as exc:
            raise RuntimeError(f"estimator functional failed on bootstrap replica {k}") from exc
    check_replicas(point, diffs)
    return point, diffs


def interval_from_replicas(
    point: float, diffs: np.ndarray, alpha: float, side: str = "two"
) -> ConfidenceInterval:
    """Invert recentered replica quantiles into an interval around the point."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    if side == "two":
        lower = point - quantile(diffs, 1.0 - alpha / 2.0)
        upper = point - quantile(diffs, alpha / 2.0)
    elif side == "lower":
        lower = point - quantile(diffs, 1.0 - alpha)
        upper = math.inf
    elif side == "upper":
        lower = -math.inf
        upper = point - quantile(diffs, alpha)
    else:
        raise ValidationError(f"side must be 'two', 'lower', or 'upper', not {side!r}")
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        point_estimate=point,
        confidence=1.0 - alpha,
        replicas=len(diffs),
    )


def bootstrap_interval(
    data,
    functional,
    alpha: float,
    b: int,
    rng_seed,
    side: str = "two",
) -> ConfidenceInterval:
    """Resample ``data`` b times, re-evaluate ``functional``, and invert the
    recentered replica distribution into a confidence interval.

    Deterministic given (data, seed, b, alpha, side).
    """
    point, diffs = bootstrap_replicas(data, functional, b, rng_seed)
    return interval_from_replicas(point, diffs, alpha, side)
