"""Sensitivity of the direct-method value to the data distribution.

``influence`` gives the closed-form directional derivative of the DM value
when the empirical tuple distribution is tilted toward a tuple (direction
delta_tuple - d), for every tuple of a dataset in one call that solves the
model once.  ``finite_difference_influence`` evaluates the same derivative
numerically on exact weighted mixtures, making the closed form independently
checkable, and ``check_gradients`` runs that check at kappa = 0 on random
models whose data visit every (s, a) pair.  ``counterexample_blowup_probe``
drives the derivative through a chain construction where it diverges without
regularization and stays bounded with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dm import dm_q, dm_value, empirical_on_policy_distribution
from .empirical import (
    EmpiricalModel,
    PriorSpec,
    TupleDataset,
    build_empirical_model,
    sample_tuples,
)
from .errors import UnvisitedPairError, ValidationError
from .mdp import (
    Policy,
    make_counterexample_chain,
    make_random_mdp,
    make_random_policy,
    on_policy_distribution,
    uniform_policy,
)
from .seeding import as_generator
from . import solvers


@dataclass(frozen=True)
class InfluenceBreakdown:
    """Directional derivative of the DM value toward each probe tuple, split
    by which empirical quantity the tuple perturbs.  Every field is an array
    with one entry per probe row."""

    reward_term: np.ndarray
    initial_state_term: np.ndarray
    next_state_term: np.ndarray
    total: np.ndarray
    weight_ratio: np.ndarray  # on-policy mass over data mass at the probe pair


def influence(model: EmpiricalModel, policy: Policy, tuples: TupleDataset) -> InfluenceBreakdown:
    """Closed-form influence of each tuple of ``tuples`` on the DM value.

    Requires positive blended mass at every probed pair: either kappa > 0 or
    the pair is visited.  With kappa > 0 the mixture also rescales every
    other pair's blend toward its prior.  The blend identity
    mean * d - m = kappa * (prior - mean), for rewards and transition rows
    alike, folds those global terms into one sum shared by every row.
    """
    if (tuples.num_states, tuples.num_actions) != (model.num_states, model.num_actions):
        raise ValidationError(
            f"probe tuples have {tuples.num_states} states and {tuples.num_actions} actions, "
            f"the model {model.num_states} and {model.num_actions}"
        )
    s, a = tuples.s, tuples.a
    gamma = model.discount
    kappa = model.kappa
    d = model.pair_mass()
    if kappa == 0.0 and not d[s, a].all():
        i = np.argmax(d[s, a] == 0.0)
        raise UnvisitedPairError(
            f"pair (s={s[i]}, a={a[i]}) is unvisited and kappa=0: derivative diverges"
        )

    dpi = empirical_on_policy_distribution(model, policy)
    v = solvers.state_values(dm_q(model, policy), policy.probs)
    rho = (1.0 - gamma) * (model.initial_dist @ v)
    prior_reward, prior_trans = model.priors.resolve(model.num_states, model.num_actions)

    denom = d + kappa
    w = np.divide(dpi, denom, out=np.zeros_like(dpi), where=denom > 0)
    tv = model.transitions @ v
    reward_shift = kappa * (w * (prior_reward - model.mean_reward)).sum()
    next_state_shift = kappa * (w * (prior_trans @ v - tv)).sum()
    reward_term = w[s, a] * (tuples.r - model.mean_reward[s, a]) + reward_shift
    next_state_term = gamma * (w[s, a] * (v[tuples.sp] - tv[s, a]) + next_state_shift)
    initial_state_term = (1.0 - gamma) * v[tuples.s0] - rho
    ratio = np.divide(dpi[s, a], d[s, a], out=np.full(len(s), np.inf), where=d[s, a] > 0)
    return InfluenceBreakdown(
        reward_term=reward_term,
        initial_state_term=initial_state_term,
        next_state_term=next_state_term,
        total=reward_term + initial_state_term + next_state_term,
        weight_ratio=ratio,
    )


def finite_difference_influence(
    data: TupleDataset,
    policy: Policy,
    probes: TupleDataset,
    t: float,
    kappa: float,
    *,
    discount: float,
) -> np.ndarray:
    """Forward difference quotients of the DM value along delta_tuple - d,
    one per row of ``probes``, all against one solve of the untilted model.

    Each mixture (1-t)*d + t*delta is evaluated exactly through fractional
    tuple weights, so the quotients are noise-free.
    """
    if not 0.0 < t <= 1.0:
        raise ValidationError("t must lie in (0, 1]")
    base_w = np.ones(data.n) / data.n
    mixed_w = np.append((1.0 - t) * base_w, t)
    base = build_empirical_model(data, None, kappa, discount=discount, weights=base_w)
    f_base = dm_value(base, policy)
    rows = zip(*(col.tolist() for col in (probes.s0, probes.s, probes.a, probes.r, probes.sp)))
    tilted = (
        build_empirical_model(_appended(data, [row]), None, kappa, discount=discount, weights=mixed_w)
        for row in rows
    )
    return np.array([(dm_value(model, policy) - f_base) / t for model in tilted])


def _appended(data: TupleDataset, tuples) -> TupleDataset:
    """``data`` with the (s0, s, a, r, s') ``tuples`` added at the end."""
    columns = (data.s0, data.s, data.a, data.r, data.sp)
    return TupleDataset(
        *(np.append(column, extra) for column, extra in zip(columns, zip(*tuples))),
        data.num_states, data.num_actions,
    )


@dataclass(frozen=True)
class GradientCheckReport:
    tol: float
    max_rel_errors: tuple  # one float per case, in case order

    @property
    def passed(self) -> bool:
        return all(e < self.tol for e in self.max_rel_errors)


def _random_case_data(rng, num_states, num_actions):
    gamma = float(rng.uniform(0.3, 0.9))
    mdp = make_random_mdp(num_states, num_actions, gamma, rng)
    policy = make_random_policy(num_states, num_actions, rng)
    extra = sample_tuples(mdp, 10 * num_states * num_actions, rng)
    # Guarantee one visit to every pair, then pad with random draws.
    s = np.repeat(np.arange(num_states), num_actions)
    a = np.tile(np.arange(num_actions), num_states)
    n = len(s)
    data = _appended(extra, zip(extra.s0[:n], s, a, np.zeros(n), extra.sp[:n]))
    return mdp, policy, data, gamma


_TILT = 1e-6  # the mixture weight t of every finite-difference tilt in ``check_gradients``
_PROBES = 50  # probe tuples per ``check_gradients`` case


def check_gradients(cases: int = 20, tol: float = 1e-3, rng_seed=0) -> GradientCheckReport:
    """Compare closed-form influence against finite differences on random
    seeded 4-state, 2-action models at kappa = 0, each case's data visiting
    every (s, a) pair.

    Relative errors use an absolute floor of 1e-3 times the largest influence
    magnitude in the case, so near-stationary probe directions do not divide
    by zero.  Fewer than one case, or a ``tol`` that is not a finite number
    above 0, raises ValidationError: neither could make the check fail.
    """
    if cases < 1:
        raise ValidationError(f"cases must be >= 1, not {cases}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be a finite number > 0, not {tol}")
    num_states, num_actions = 4, 2
    max_rel_errors = []
    for case in range(cases):
        rng = as_generator(("gradcheck", rng_seed, case))
        _, policy, data, gamma = _random_case_data(rng, num_states, num_actions)
        model = build_empirical_model(data, discount=gamma)
        tuples = [
            (
                int(rng.integers(num_states)),
                int(rng.integers(num_states)),
                int(rng.integers(num_actions)),
                float(rng.uniform(-1.0, 1.0)),
                int(rng.integers(num_states)),
            )
            for _ in range(_PROBES)
        ]
        probes = TupleDataset.from_tuples(tuples, num_states, num_actions)
        closed = influence(model, policy, probes).total
        quotients = finite_difference_influence(data, policy, probes, _TILT, 0.0, discount=gamma)
        pairs = list(zip(closed.tolist(), quotients.tolist()))
        floor = max(1e-3 * max(max(abs(c), abs(f)) for c, f in pairs), 1e-12)
        errors = [abs(c - f) / max(abs(c), abs(f), floor) for c, f in pairs]
        max_rel_errors.append(max([0.0] + errors))
    return GradientCheckReport(tol=tol, max_rel_errors=tuple(max_rel_errors))


def _chain_tuple_distribution(n_intermediate: int, discount: float):
    """Tuple-level decomposition of the chain's on-policy distribution, with
    all mass at the pair (s_N, a) reassigned to the absorbing-state tuple."""
    mdp = make_counterexample_chain(n_intermediate, discount)
    policy = uniform_policy(mdp.num_states, 1)
    dpi = on_policy_distribution(mdp, policy)[:, 0]
    start, term = 0, mdp.num_states - 1
    branch = mdp.transitions[start, 0, 1 : n_intermediate + 1]

    records = []  # (s0, s, a, r, sp), weight
    for k in range(1, n_intermediate + 1):
        records.append(((start, start, 0, 0.0, k), dpi[start] * branch[k - 1]))
    for k in range(1, n_intermediate):
        records.append(((start, k, 0, 0.0, term), dpi[k]))
    moved = dpi[n_intermediate]
    records.append(((start, term, 0, 1.0, term), dpi[term] + moved))
    tuples = [rec for rec, _ in records]
    weights = np.array([w for _, w in records])
    data = TupleDataset.from_tuples(tuples, mdp.num_states, 1)
    return mdp, policy, data, weights


def counterexample_blowup_probe(n_intermediate: int, kappa: float, steps) -> list:
    """Difference quotients of the DM value along a perturbation sequence
    that re-populates an unvisited pair of the chain at discount 0.5.

    Returns [(epsilon, quotient), ...].  With kappa=0 the quotients grow like
    1/epsilon (the derivative does not exist); with kappa>0 they converge.
    """
    steps = [float(e) for e in steps]
    if any(not 0.0 < e < 1.0 for e in steps):
        raise ValidationError("steps must lie in (0, 1)")
    if any(later >= earlier for earlier, later in zip(steps, steps[1:])):
        raise ValidationError("steps must be strictly decreasing")

    discount = 0.5
    mdp, policy, data, weights = _chain_tuple_distribution(n_intermediate, discount)
    start, term = 0, mdp.num_states - 1
    probe_priors = PriorSpec(
        reward_mean=1.0,
        transition_probs=_point_transition_prior(mdp.num_states, 1, term),
    )
    base = build_empirical_model(data, probe_priors, kappa, discount=discount, weights=weights)
    f_base = dm_value(base, policy)

    unvisited_tuple = (start, n_intermediate, 0, 0.0, term)
    crowd_tuple = (start, 1, 0, 0.0, term)
    extended = _appended(data, [unvisited_tuple, crowd_tuple])
    out = []
    for eps in steps:
        mixed_w = np.append((1.0 - eps) * weights, [eps * eps, eps * (1.0 - eps)])
        model = build_empirical_model(
            extended, probe_priors, kappa, discount=discount, weights=mixed_w
        )
        f_mixed = dm_value(model, policy)
        out.append((eps, (f_mixed - f_base) / eps))
    return out


def _point_transition_prior(num_states: int, num_actions: int, target: int) -> np.ndarray:
    prior = np.zeros((num_states, num_actions, num_states))
    prior[:, :, target] = 1.0
    return prior
