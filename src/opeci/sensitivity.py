"""Sensitivity of the direct-method value to the data distribution.

``influence`` gives the closed-form directional derivative of the DM value
when the empirical tuple distribution is tilted toward a single tuple
(direction delta_tuple - d).  ``finite_difference_influence`` evaluates the
same derivative numerically on exact weighted mixtures, making the closed
form independently checkable.  ``counterexample_blowup_probe`` drives the
derivative through a chain construction where it diverges without
regularization and stays bounded with it.
"""

from __future__ import annotations

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
    """Directional derivative of the DM value, split by which empirical
    quantity the probe tuple perturbs."""

    reward_term: float
    initial_state_term: float
    next_state_term: float
    total: float
    weight_ratio: float  # on-policy mass over data mass at the probe pair


def influence(model: EmpiricalModel, policy: Policy, tup) -> InfluenceBreakdown:
    """Closed-form influence of one tuple on the DM value.

    Requires positive blended mass at the probed pair: either kappa > 0 or
    the pair is visited.  With kappa > 0 the mixture also rescales every
    other pair's blend toward its prior, and those global terms are included.
    """
    s0x, sx, ax, rx, spx = (int(tup[0]), int(tup[1]), int(tup[2]), float(tup[3]), int(tup[4]))
    gamma = model.discount
    kappa = model.kappa
    d = model.pair_mass()
    if kappa == 0.0 and d[sx, ax] == 0.0:
        raise UnvisitedPairError(
            f"pair (s={sx}, a={ax}) is unvisited and kappa=0: derivative diverges"
        )

    dpi = empirical_on_policy_distribution(model, policy)
    q = dm_q(model, policy)
    v = solvers.state_values(q, policy.probs)
    p0 = solvers.initial_state_action(model.initial_dist, policy.probs)
    rho = float((1.0 - gamma) * (p0 @ q.reshape(-1)))

    m1 = model.reward_sums / model.total_weight
    mt = model.transition_counts / model.total_weight
    denom = d + kappa

    d_dot = -d.copy()
    d_dot[sx, ax] += 1.0
    m1_dot = -m1
    m1_dot[sx, ax] += rx
    mt_dot = -mt
    mt_dot[sx, ax, spx] += 1.0

    with np.errstate(divide="ignore", invalid="ignore"):
        r_dot = np.where(
            denom > 0,
            (m1_dot - model.mean_reward * d_dot) / np.where(denom > 0, denom, 1.0),
            0.0,
        )
        t_dot = np.where(
            denom[:, :, None] > 0,
            (mt_dot - model.transitions * d_dot[:, :, None])
            / np.where(denom[:, :, None] > 0, denom[:, :, None], 1.0),
            0.0,
        )

    reward_term = float((dpi * r_dot).sum())
    next_state_term = float(gamma * (dpi[:, :, None] * v[None, None, :] * t_dot).sum())
    initial_state_term = float((1.0 - gamma) * v[s0x] - rho)
    total = reward_term + initial_state_term + next_state_term
    ratio = float(dpi[sx, ax] / d[sx, ax]) if d[sx, ax] > 0 else float("inf")
    return InfluenceBreakdown(
        reward_term=reward_term,
        initial_state_term=initial_state_term,
        next_state_term=next_state_term,
        total=total,
        weight_ratio=ratio,
    )


def finite_difference_influence(
    data: TupleDataset,
    policy: Policy,
    tup,
    t: float,
    kappa: float,
    *,
    discount: float,
    weights: np.ndarray | None = None,
    priors: PriorSpec | None = None,
) -> float:
    """Forward difference quotient of the DM value along delta_tuple - d.

    The mixture (1-t)*d + t*delta is evaluated exactly through fractional
    tuple weights, so the quotient is noise-free.
    """
    if not 0.0 < t <= 1.0:
        raise ValidationError("t must lie in (0, 1]")
    base_w = np.ones(data.n) if weights is None else np.asarray(weights, dtype=np.float64)
    base_w = base_w / base_w.sum()
    s0x, sx, ax, rx, spx = tup
    mixed = TupleDataset(
        np.append(data.s0, int(s0x)),
        np.append(data.s, int(sx)),
        np.append(data.a, int(ax)),
        np.append(data.r, float(rx)),
        np.append(data.sp, int(spx)),
        data.num_states,
        data.num_actions,
    )
    mixed_w = np.append((1.0 - t) * base_w, t)
    base = build_empirical_model(data, priors, kappa, discount=discount, weights=base_w)
    tilted = build_empirical_model(mixed, priors, kappa, discount=discount, weights=mixed_w)
    return (dm_value(tilted, policy) - dm_value(base, policy)) / t


@dataclass(frozen=True)
class GradientCase:
    case_index: int
    max_rel_error: float
    worst_tuple: tuple | None
    error: str | None


@dataclass(frozen=True)
class GradientCheckReport:
    tol: float
    kappa: float
    cases: tuple  # tuple[GradientCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.error is None and c.max_rel_error < self.tol for c in self.cases)

    @property
    def max_rel_error(self) -> float:
        finite = [c.max_rel_error for c in self.cases if c.error is None]
        return max(finite) if finite else float("nan")


def _random_case_data(rng, num_states, num_actions, full_support):
    gamma = float(rng.uniform(0.3, 0.9))
    mdp = make_random_mdp(num_states, num_actions, gamma, rng)
    policy = make_random_policy(num_states, num_actions, rng)
    extra = sample_tuples(mdp, 10 * num_states * num_actions, rng)
    if full_support:
        # Guarantee one visit to every pair, then pad with random draws.
        s = np.repeat(np.arange(num_states), num_actions)
        a = np.tile(np.arange(num_actions), num_states)
        fill = TupleDataset(
            np.append(extra.s0, extra.s0[: len(s)]),
            np.append(extra.s, s),
            np.append(extra.a, a),
            np.append(extra.r, np.zeros(len(s))),
            np.append(extra.sp, extra.sp[: len(s)]),
            num_states,
            num_actions,
        )
        data = fill
    else:
        # Restrict visits to half the pairs so some stay empty.
        keep = extra.s * num_actions + extra.a < (num_states * num_actions) // 2
        if not keep.any():
            keep[:] = True
        data = TupleDataset(
            extra.s0[keep], extra.s[keep], extra.a[keep], extra.r[keep], extra.sp[keep],
            num_states, num_actions,
        )
    return mdp, policy, data, gamma


def check_gradients(
    cases: int = 20,
    tuples_per_case: int = 50,
    tol: float = 1e-3,
    kappa: float = 0.0,
    rng_seed=0,
    t: float = 1e-6,
    num_states: int = 4,
    num_actions: int = 2,
    full_support: bool = True,
) -> GradientCheckReport:
    """Compare closed-form influence against finite differences on random
    seeded models.

    Relative errors use an absolute floor of 1e-3 times the largest influence
    magnitude in the case, so near-stationary probe directions do not divide
    by zero.  A case records an error string instead of a number when the
    closed form's precondition is breached (kappa=0 at an unvisited pair).
    """
    report_cases = []
    for case in range(cases):
        rng = as_generator(("gradcheck", rng_seed, case))
        mdp, policy, data, gamma = _random_case_data(rng, num_states, num_actions, full_support)
        model = build_empirical_model(data, None, kappa, discount=gamma)
        pairs = []
        failure = None
        for _ in range(tuples_per_case):
            tup = (
                int(rng.integers(num_states)),
                int(rng.integers(num_states)),
                int(rng.integers(num_actions)),
                float(rng.uniform(-1.0, 1.0)),
                int(rng.integers(num_states)),
            )
            try:
                closed = influence(model, policy, tup).total
            except UnvisitedPairError as exc:
                failure = str(exc)
                break
            fd = finite_difference_influence(data, policy, tup, t, kappa, discount=gamma)
            pairs.append((closed, fd, tup))
        if failure is not None:
            report_cases.append(GradientCase(case, float("nan"), None, failure))
            continue
        floor = max(1e-3 * max(max(abs(c), abs(f)) for c, f, _ in pairs), 1e-12)
        worst_err, worst_tup = 0.0, None
        for closed, fd, tup in pairs:
            err = abs(closed - fd) / max(abs(closed), abs(fd), floor)
            if err > worst_err:
                worst_err, worst_tup = err, tup
        report_cases.append(GradientCase(case, worst_err, worst_tup, None))
    return GradientCheckReport(tol=tol, kappa=kappa, cases=tuple(report_cases))


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


def counterexample_blowup_probe(
    n_intermediate: int,
    kappa: float,
    steps,
    discount: float = 0.5,
    include_unvisited_mass: bool = True,
) -> list:
    """Difference quotients of the DM value along a perturbation sequence
    that re-populates an unvisited pair.

    Returns [(epsilon, quotient), ...].  With kappa=0 the quotients grow like
    1/epsilon (the derivative does not exist); with kappa>0 they converge.
    With ``include_unvisited_mass=False`` the perturbation keeps the
    unvisited pair empty and the quotients are identically zero at kappa=0.
    """
    steps = [float(e) for e in steps]
    if any(not 0.0 < e < 1.0 for e in steps):
        raise ValidationError("steps must lie in (0, 1)")
    if any(later >= earlier for earlier, later in zip(steps, steps[1:])):
        raise ValidationError("steps must be strictly decreasing")

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
    extended = TupleDataset(
        np.append(data.s0, [unvisited_tuple[0], crowd_tuple[0]]),
        np.append(data.s, [unvisited_tuple[1], crowd_tuple[1]]),
        np.append(data.a, [unvisited_tuple[2], crowd_tuple[2]]),
        np.append(data.r, [unvisited_tuple[3], crowd_tuple[3]]),
        np.append(data.sp, [unvisited_tuple[4], crowd_tuple[4]]),
        data.num_states,
        data.num_actions,
    )
    out = []
    for eps in steps:
        if include_unvisited_mass:
            extra = np.array([eps * eps, eps * (1.0 - eps)])
        else:
            extra = np.array([0.0, eps])
        mixed_w = np.append((1.0 - eps) * weights, extra)
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
