"""Direct-method policy value on an empirical model.

Two equivalent routes are provided: an exact linear solve on the blended
model tables, and fixed-point Q-evaluation iterated from the prior-implied
Q-function.  Their agreement is a built-in cross-check used by the tests.
``dm_bootstrap_replicas`` computes the bootstrap replicas of the DM value in
stacked batches from multinomial counts over the distinct tuples.
"""

from __future__ import annotations

import numpy as np

from .bootstrap import check_replicas
from .empirical import (
    _CHUNK_BYTES, EmpiricalModel, _count_tables, blend_tables, build_empirical_model, resample_counts,
)
from .errors import SolverError, ValidationError
from .mdp import Policy, check_policy
from . import solvers


def dm_value(model: EmpiricalModel, policy: Policy) -> float:
    """Normalized value of the policy in the empirical MDP (linear solve)."""
    check_policy(policy, model)
    return solvers.policy_value(
        model.mean_reward, model.transitions, model.initial_dist, policy.probs, model.discount
    )


def dm_q(model: EmpiricalModel, policy: Policy) -> np.ndarray:
    """Q-function of the policy under the empirical MDP."""
    check_policy(policy, model)
    return solvers.q_table(model.mean_reward, model.transitions, policy.probs, model.discount)


def empirical_on_policy_distribution(model: EmpiricalModel, policy: Policy) -> np.ndarray:
    """Discounted on-policy state-action distribution in the empirical MDP."""
    check_policy(policy, model)
    return solvers.on_policy_distribution_table(
        model.transitions, model.initial_dist, policy.probs, model.discount
    )


def qe_fixed_point(model: EmpiricalModel, policy: Policy, tolerance: float = 1e-12) -> tuple:
    """Iterate the tabular backup to its fixed point.

    Returns (q_table, iterations) where ``iterations`` counts backups
    performed until the sup-norm change dropped to ``tolerance``.  The
    iteration starts from the policy's Q-function under the pure-prior
    model, which makes the prior semantics of unvisited pairs explicit
    instead of leaving them to whatever the iteration started from.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be > 0")
    check_policy(policy, model)
    S, A = model.num_states, model.num_actions
    rbar = model.mean_reward.reshape(S * A)
    flat_t = model.transitions.reshape(S * A, S)
    gamma = model.discount
    prior_reward, prior_trans = model.priors.resolve(S, A)
    q = solvers.q_table(prior_reward, prior_trans, policy.probs, gamma).reshape(S * A)
    max_iters = max(
        1000, solvers._contraction_iteration_cap(gamma, tolerance, float(np.abs(rbar).max()))
    )

    def backup(q):
        return rbar + gamma * (flat_t @ (policy.probs * q.reshape(S, A)).sum(axis=1))

    q, iterations = solvers.fixed_point(backup, q, tolerance, max_iters, "Q-evaluation")
    return q.reshape(S, A), iterations


def dm_value_via_qe(model: EmpiricalModel, policy: Policy, tolerance: float = 1e-12) -> float:
    """Direct-method value via Q-evaluation instead of a linear solve."""
    q, _ = qe_fixed_point(model, policy, tolerance)
    p0 = solvers.initial_state_action(model.initial_dist, policy.probs)
    return float((1.0 - model.discount) * (p0 @ q.reshape(-1)))


def replica_chunk_size(num_states: int, num_actions: int, num_distinct: int = 0) -> int:
    """Replicas per stacked solve, keeping a chunk's tables near 1 MB.

    Per replica: its counts of the distinct tuples, the count tables, the blend
    and its temporaries (about four (S, A, S) tables in all), the S x S system.
    """
    S, A = num_states, num_actions
    per_replica = 8 * (num_distinct + 4 * S * A * S + 2 * S * S + 4 * S * A + 4 * S)
    return max(1, _CHUNK_BYTES // per_replica)


def dm_bootstrap_replicas(
    data,
    policy: Policy,
    b: int,
    rng_seed,
    *,
    kappa: float,
    discount: float,
) -> tuple:
    """DM point estimate plus the b recentered bootstrap replica differences.

    Replica k is the DM value, up to the order reward sums add in, of
    ``build_empirical_model(distinct, weights=row)`` for the k-th count row
    that ``resample_counts(data, rng_seed)`` draws.  Chunks of
    ``replica_chunk_size`` replicas are drawn, tabled, blended and solved as
    one stack each, and chunking changes no replica's value.
    """
    if b < 2:
        raise ValidationError("b must be >= 2")
    model = build_empirical_model(data, kappa=kappa, discount=discount)
    point = dm_value(model, policy)
    distinct, draw = resample_counts(data, rng_seed)
    chunk = replica_chunk_size(model.num_states, model.num_actions, distinct.n)
    diffs = np.empty(b)
    for start in range(0, b, chunk):
        stop = min(start + chunk, b)
        tables = _count_tables(distinct, draw(stop - start))
        mean_reward, transitions, initial_dist = blend_tables(
            *tables, float(data.n), model.priors, kappa
        )
        try:
            values = solvers.policy_value(
                mean_reward, transitions, initial_dist, policy.probs, discount
            )
        except SolverError as exc:
            raise SolverError(f"bootstrap replicas {start}-{stop - 1}: {exc}") from exc
        diffs[start:stop] = values - point
    check_replicas(point, diffs)
    return point, diffs
