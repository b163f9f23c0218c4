"""Importance-sampling and doubly-robust baselines with concentration bounds.

Per-episode estimators produce one value per logged episode; intervals then
come either from concentration inequalities (Hoeffding, empirical Bernstein,
Student's t) or from bootstrapping the per-episode values, which
``harness.method_intervals`` does for its ``is-boot`` and ``dr-boot`` methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import ConfidenceInterval
from .dm import dm_q
from .errors import ValidationError
from .mdp import EpisodeSet, Policy, _freeze, check_discount, check_policy
from . import solvers


@dataclass(frozen=True)
class PerEpisodeEstimates:
    """One value-estimate per episode plus an a-priori magnitude bound."""

    values: np.ndarray
    range_bound: float

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _backward_sweep(
    episodes: EpisodeSet,
    target: Policy,
    discount: float,
    q: np.ndarray,
    v: np.ndarray,
) -> tuple:
    """(per-episode values, largest step ratio, largest |reward|, longest episode).

    One backward recursion over all episodes at once, a step from the end at
    a time:  acc = V(s) + ratio * (r + discount*acc - Q(s, a)),  with V and Q
    zero for PDIS.
    """
    check_discount(discount)
    check_policy(target, episodes)
    cols = episodes.columns
    ratio = target.probs[cols.s, cols.a] / cols.behavior_prob
    base, control = v[cols.s], q[cols.s, cols.a]
    ends = np.cumsum(cols.lengths)
    t_max = int(cols.lengths.max(initial=0))
    acc = np.zeros(len(ends))
    for k in range(t_max):
        live = np.flatnonzero(cols.lengths > k)
        i = ends[live] - 1 - k
        acc[live] = base[i] + ratio[i] * (cols.r[i] + discount * acc[live] - control[i])
    rho_max = float(ratio.max(initial=0.0))
    r_max = float(np.abs(cols.r).max(initial=0.0))
    return (1.0 - discount) * acc, rho_max, r_max, t_max


def per_decision_is(episodes: EpisodeSet, target: Policy, discount: float) -> PerEpisodeEstimates:
    """Per-decision importance sampling: step t is re-weighted by the product
    of target/behavior ratios up to t.

    The range bound is analytic in the observed max step ratio, so it is
    optimistic when ratios are data-estimated: it reflects the dataset seen,
    not the environment's worst case.
    """
    zeros = np.zeros(target.probs.shape)
    values, rho_max, r_max, t_max = _backward_sweep(episodes, target, discount, zeros, zeros[:, 0])
    bound = 0.0
    if t_max and rho_max and r_max:
        t = np.arange(t_max)
        bound = float((1.0 - discount) * ((discount**t) * rho_max ** (t + 1)).sum() * r_max)
    return PerEpisodeEstimates(values=values, range_bound=bound)


def dr_estimate(
    episodes: EpisodeSet, target: Policy, model, discount: float
) -> PerEpisodeEstimates:
    """Doubly-robust estimator with the Q-function of ``model``, a TabularMdp
    or an EmpiricalModel, as control variate.

    The recursion per step is  V(s) + ratio * (r + discount*tail - Q(s, a));
    with Q identically zero it reduces to per-decision IS exactly.
    """
    q = dm_q(model, target)
    v = solvers.state_values(q, target.probs)
    values, rho_max, r_max, t_max = _backward_sweep(episodes, target, discount, q, v)
    v_max, q_max = float(np.abs(v).max()), float(np.abs(q).max())
    bound = 0.0
    for _ in range(t_max):
        bound = v_max + rho_max * (r_max + discount * bound + q_max)
    bound *= 1.0 - discount
    return PerEpisodeEstimates(values=values, range_bound=bound)


def _mean_and_size(est: PerEpisodeEstimates, minimum: int) -> tuple:
    if est.m < minimum:
        raise ValidationError(f"need at least {minimum} episodes, got {est.m}")
    return est.mean, est.m


def hoeffding_interval(est: PerEpisodeEstimates, alpha: float) -> ConfidenceInterval:
    """mean +/- range_bound * sqrt(ln(2/alpha) / (2m))."""
    if not math.isfinite(est.range_bound):
        raise ValidationError("Hoeffding interval requires a finite range bound")
    mean, m = _mean_and_size(est, 1)
    half = est.range_bound * math.sqrt(math.log(2.0 / alpha) / (2.0 * m))
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha)


def empirical_bernstein_interval(est: PerEpisodeEstimates, alpha: float) -> ConfidenceInterval:
    """Variance-adaptive bound: sqrt(2*V*ln(2/a)/m) + 7*range*ln(2/a)/(3(m-1))."""
    if not math.isfinite(est.range_bound):
        raise ValidationError("Bernstein interval requires a finite range bound")
    mean, m = _mean_and_size(est, 2)
    log_term = math.log(2.0 / alpha)
    variance = float(est.values.var(ddof=1))
    half = math.sqrt(2.0 * variance * log_term / m) + (
        7.0 * est.range_bound * log_term / (3.0 * (m - 1))
    )
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha)


def student_t_interval(est: PerEpisodeEstimates, alpha: float) -> ConfidenceInterval:
    """mean +/- t_{1-alpha/2, m-1} * s / sqrt(m) with the m-1 variance."""
    # Imported here: nothing else in the package needs scipy, and loading it
    # nearly doubles the memory of a bare ``import opeci``.
    from scipy.special import stdtrit

    mean, m = _mean_and_size(est, 2)
    sd = float(est.values.std(ddof=1))
    half = float(stdtrit(m - 1, 1.0 - alpha / 2.0)) * sd / math.sqrt(m)
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha)
