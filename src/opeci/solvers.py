"""Linear-solve and fixed-point evaluation of a policy on tabular model tables.

Everything here operates on raw arrays (mean rewards, transition rows, an
initial state distribution, policy rows, and a discount) so the same code
serves both ground-truth MDPs and empirical models.  The model tables may
carry leading axes (a stack of bootstrap replicas, say); each stacked model
is solved on its own and the policy rows are shared.

Solves are at state level.  With P_pi[s, s'] = sum_a pi(a|s) T(s'|s,a) and
r_pi[s] = sum_a pi(a|s) rbar(s,a),

    V = (I - g*P_pi)^{-1} r_pi,    Q = rbar + g*T V,
    value = (1-g) * mu0 . V,

and the discounted visitation comes from the adjoint system

    d_S = (1-g) * (I - g*P_pi^T)^{-1} mu0,    d(s,a) = d_S(s) * pi(a|s).

Models with up to ``DENSE_SIZE_LIMIT`` states solve by dense LU with an
explicit residual check per stacked system; larger ones fall back to
fixed-point iteration, which is a discount-rate contraction and cannot
diverge.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

DENSE_SIZE_LIMIT = 4096  # states

_RESIDUAL_TOL = 1e-10


def initial_state_action(initial_dist: np.ndarray, policy_probs: np.ndarray) -> np.ndarray:
    """Flat initial state-action distribution p0[(s,a)] = mu0(s)*pi(a|s)."""
    return (initial_dist[:, None] * policy_probs).reshape(-1)


def _policy_chain(transitions: np.ndarray, policy_probs: np.ndarray) -> np.ndarray:
    """State transition matrix P_pi[..., s, s'] under the policy."""
    return (policy_probs[:, :, None] * transitions).sum(axis=-2)


def _checked_solve(a_mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each stacked system a_mat x = b and check its residual."""
    x = np.linalg.solve(a_mat, b[..., None])[..., 0]
    residual = np.abs((a_mat @ x[..., None])[..., 0] - b).max(axis=-1)
    scale = np.maximum(np.abs(b).max(axis=-1), 1.0)
    bad = residual > _RESIDUAL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"linear solve residual {residual.flat[i]:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e} * {scale.flat[i]:.3e} in stacked system {i}"
        )
    return x


def _contraction_iteration_cap(discount: float, tol: float, reward_scale: float) -> int:
    if discount == 0.0:
        return 2
    scale = max(reward_scale, 1.0) / (1.0 - discount)
    return int(math.ceil(math.log(max(tol, 1e-300) / (2.0 * scale)) / math.log(discount))) + 2


def fixed_point(backup, start: np.ndarray, tol: float, max_iters: int, what: str) -> tuple:
    """(x, backups): iterate x <- backup(x) from ``start`` until one backup
    moves x by at most ``tol`` in sup norm; NaN never converges."""
    x = start
    for backups in range(1, max_iters + 1):
        x_next = backup(x)
        delta = np.abs(x_next - x).max()
        x = x_next
        if delta <= tol:
            return x, backups
    raise SolverError(f"{what} did not converge to {tol:.1e} within {max_iters} backups")


def _iterate_distribution(
    initial_dist: np.ndarray, p_pi: np.ndarray, discount: float, tol: float
) -> np.ndarray:
    total = np.zeros(np.broadcast_shapes(initial_dist.shape, p_pi.shape[:-1]))
    pulse = initial_dist
    weight = 1.0 - discount
    max_iters = _contraction_iteration_cap(discount, tol, 1.0)
    for _ in range(max_iters):
        total += weight * pulse
        if weight * pulse.max() <= tol:
            return total
        pulse = (pulse[..., None, :] @ p_pi)[..., 0, :]
        weight *= discount
    raise SolverError(f"distribution iteration did not reach {tol:.1e}")


def _solve_state_values(
    mean_rewards: np.ndarray, transitions: np.ndarray, policy_probs: np.ndarray, discount: float
) -> np.ndarray:
    """V(s) = r_pi(s) + g*E[V(s')], the un-normalized state-level fixed point."""
    num_states = policy_probs.shape[0]
    p_pi = _policy_chain(transitions, policy_probs)
    r_pi = (policy_probs * np.asarray(mean_rewards, dtype=np.float64)).sum(axis=-1)
    if num_states <= DENSE_SIZE_LIMIT:
        return _checked_solve(np.eye(num_states) - discount * p_pi, r_pi)
    tol = 1e-13
    cap = _contraction_iteration_cap(discount, tol, float(np.abs(r_pi).max()))
    return fixed_point(
        lambda v: r_pi + discount * (p_pi @ v[..., None])[..., 0],
        np.zeros_like(r_pi), tol, cap, "fixed-point iteration",
    )[0]


def q_table(
    mean_rewards: np.ndarray, transitions: np.ndarray, policy_probs: np.ndarray, discount: float
) -> np.ndarray:
    """Q(s,a) = rbar(s,a) + g*E[V(s')], the un-normalized fixed point."""
    v = _solve_state_values(mean_rewards, transitions, policy_probs, discount)
    return mean_rewards + discount * (transitions @ v[..., None, :, None])[..., 0]


def on_policy_distribution_table(
    transitions: np.ndarray,
    initial_dist: np.ndarray,
    policy_probs: np.ndarray,
    discount: float,
) -> np.ndarray:
    """Discounted state-action visitation d(s,a), normalized to sum to 1."""
    num_states = policy_probs.shape[0]
    p_pi = _policy_chain(transitions, policy_probs)
    if num_states <= DENSE_SIZE_LIMIT:
        a_mat = np.eye(num_states) - discount * np.swapaxes(p_pi, -1, -2)
        b = np.broadcast_to((1.0 - discount) * initial_dist, a_mat.shape[:-1])
        d_states = _checked_solve(a_mat, b)
    else:
        d_states = _iterate_distribution(initial_dist, p_pi, discount, tol=1e-15)
    # LU round-off can leave entries at -1e-17; the result is a distribution.
    return np.maximum(d_states[..., None] * policy_probs, 0.0)


def state_values(q: np.ndarray, policy_probs: np.ndarray) -> np.ndarray:
    """V(s) = E_{a~pi(s)}[Q(s,a)]."""
    return (policy_probs * q).sum(axis=1)


def policy_value(
    mean_rewards: np.ndarray,
    transitions: np.ndarray,
    initial_dist: np.ndarray,
    policy_probs: np.ndarray,
    discount: float,
):
    """(1-discount)-normalized expected discounted reward of the policy.

    A float for one model; an array over the leading axes for stacked models.
    """
    v = _solve_state_values(mean_rewards, transitions, policy_probs, discount)
    value = (1.0 - discount) * (initial_dist * v).sum(axis=-1)
    return float(value) if np.ndim(value) == 0 else value
