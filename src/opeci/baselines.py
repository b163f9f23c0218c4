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
from scipy import stats

from .bootstrap import ConfidenceInterval
from .dm import dm_q
from .empirical import EmpiricalModel
from .errors import ValidationError
from .mdp import Episode, EpisodeSet, Policy
from . import solvers


@dataclass(frozen=True)
class PerEpisodeEstimates:
    """One value-estimate per episode plus an a-priori magnitude bound."""

    values: np.ndarray
    estimator_tag: str  # "PDIS" or "DR"
    range_bound: float

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _step_ratios(episode: Episode, target: Policy) -> np.ndarray:
    num_states, num_actions = target.probs.shape
    ratios = np.empty(len(episode.steps))
    for i, step in enumerate(episode.steps):
        if not (0 <= step.state < num_states and 0 <= step.action < num_actions):
            raise ValidationError(
                f"logged step (state {step.state}, action {step.action}) is outside the "
                f"target policy's {num_states} states and {num_actions} actions"
            )
        if step.behavior_prob <= 0.0:
            raise ValidationError(
                f"logged behavior probability {step.behavior_prob} is not positive"
            )
        ratios[i] = target.probs[step.state, step.action] / step.behavior_prob
    return ratios


def _recursive_estimate(
    episode: Episode,
    ratios: np.ndarray,
    discount: float,
    q: np.ndarray | None,
    v: np.ndarray | None,
) -> float:
    """Backward recursion shared by PDIS (q=v=0) and DR."""
    acc = 0.0
    for i in range(len(episode.steps) - 1, -1, -1):
        step = episode.steps[i]
        baseline = 0.0 if v is None else v[step.state]
        control = 0.0 if q is None else q[step.state, step.action]
        acc = baseline + ratios[i] * (step.reward + discount * acc - control)
    return (1.0 - discount) * acc


def _step_extremes(episodes: EpisodeSet, target: Policy) -> tuple:
    """(largest step ratio, largest |reward|, longest episode) over the logged steps."""
    rho_max, r_max, t_max = 0.0, 0.0, 0
    for ep in episodes.episodes:
        t_max = max(t_max, len(ep.steps))
        for step in ep.steps:
            rho_max = max(rho_max, target.probs[step.state, step.action] / step.behavior_prob)
            r_max = max(r_max, abs(step.reward))
    return rho_max, r_max, t_max


def _pdis_range_bound(episodes: EpisodeSet, target: Policy, discount: float) -> float:
    """Analytic per-episode magnitude bound from the observed max step ratio.

    Optimistic when ratios are data-estimated: it reflects the dataset seen,
    not the environment's worst case.
    """
    rho_max, r_max, t_max = _step_extremes(episodes, target)
    if t_max == 0 or rho_max == 0.0 or r_max == 0.0:
        return 0.0
    t = np.arange(t_max)
    return float((1.0 - discount) * ((discount**t) * rho_max ** (t + 1)).sum() * r_max)


def per_decision_is(
    episodes: EpisodeSet,
    target: Policy,
    discount: float,
    trajectory_weighting: bool = False,
) -> PerEpisodeEstimates:
    """Per-decision importance sampling: step t is re-weighted by the product
    of target/behavior ratios up to t.

    ``trajectory_weighting=True`` switches to whole-trajectory weights (the
    higher-variance classical form); off by default.
    """
    if not 0.0 <= discount < 1.0:
        raise ValidationError("discount must lie in [0, 1)")
    values = np.empty(len(episodes.episodes))
    for j, ep in enumerate(episodes.episodes):
        ratios = _step_ratios(ep, target)
        if trajectory_weighting and len(ratios):
            full = float(np.prod(ratios))
            rewards = np.array([s.reward for s in ep.steps])
            weights = discount ** np.arange(len(ratios))
            values[j] = (1.0 - discount) * full * float(weights @ rewards)
        else:
            values[j] = _recursive_estimate(ep, ratios, discount, None, None)
    return PerEpisodeEstimates(
        values=values,
        estimator_tag="PDIS",
        range_bound=_pdis_range_bound(episodes, target, discount),
    )


def dr_estimate(
    episodes: EpisodeSet,
    target: Policy,
    model: EmpiricalModel | None,
    discount: float,
    q_table: np.ndarray | None = None,
) -> PerEpisodeEstimates:
    """Doubly-robust estimator with the model's Q-function as control variate.

    The recursion per step is  V(s) + ratio * (r + discount*tail - Q(s, a));
    with Q identically zero it reduces to per-decision IS exactly.
    """
    if q_table is None:
        if model is None:
            raise ValidationError("dr_estimate needs a model or an explicit q_table")
        q = dm_q(model, target)
    else:
        q = np.asarray(q_table, dtype=np.float64)
    v = solvers.state_values(q, target.probs)
    values = np.empty(len(episodes.episodes))
    for j, ep in enumerate(episodes.episodes):
        ratios = _step_ratios(ep, target)
        values[j] = _recursive_estimate(ep, ratios, discount, q, v)
    return PerEpisodeEstimates(
        values=values,
        estimator_tag="DR",
        range_bound=_dr_range_bound(episodes, target, discount, q, v),
    )


def _dr_range_bound(episodes, target, discount, q, v) -> float:
    rho_max, r_max, t_max = _step_extremes(episodes, target)
    bound = 0.0
    v_max = float(np.abs(v).max()) if v.size else 0.0
    q_max = float(np.abs(q).max()) if q.size else 0.0
    for _ in range(t_max):
        bound = v_max + rho_max * (r_max + discount * bound + q_max)
    return (1.0 - discount) * bound


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
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha, 0)


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
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha, 0)


def student_t_interval(est: PerEpisodeEstimates, alpha: float) -> ConfidenceInterval:
    """mean +/- t_{1-alpha/2, m-1} * s / sqrt(m) with the m-1 variance."""
    mean, m = _mean_and_size(est, 2)
    sd = float(est.values.std(ddof=1))
    half = float(stats.t.ppf(1.0 - alpha / 2.0, m - 1)) * sd / math.sqrt(m)
    return ConfidenceInterval(mean - half, mean + half, mean, 1.0 - alpha, 0)
