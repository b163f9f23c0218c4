"""Linear-solve evaluation of a policy on tabular model tables.

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

Every model, at every size, solves by dense LU with an explicit residual
check per stacked system.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_RESIDUAL_TOL = 1e-10


def _policy_chain(transitions: np.ndarray, policy_probs: np.ndarray) -> np.ndarray:
    """State transition matrix P_pi[..., s, s'] under the policy."""
    return (policy_probs[:, :, None] * transitions).sum(axis=-2)


def _checked_solve(a_mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each stacked system a_mat x = b and check its residual.

    A system with finite inputs fails unless its residual is within the
    tolerance, so a NaN residual fails too; a system with non-finite inputs
    is left to its caller's check, which names what is not finite.
    """
    x = np.linalg.solve(a_mat, b[..., None])[..., 0]
    residual = np.abs((a_mat @ x[..., None])[..., 0] - b).max(axis=-1)
    scale = np.maximum(np.abs(b).max(axis=-1), 1.0)
    bad = (
        ~(residual <= _RESIDUAL_TOL * scale)
        & np.isfinite(a_mat).all(axis=(-2, -1))
        & np.isfinite(b).all(axis=-1)
    )
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"linear solve residual {residual.flat[i]:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e} * {scale.flat[i]:.3e} in stacked system {i}"
        )
    return x


def _solve_state_values(
    mean_rewards: np.ndarray, transitions: np.ndarray, policy_probs: np.ndarray, discount: float
) -> np.ndarray:
    """V(s) = r_pi(s) + g*E[V(s')], the un-normalized state-level fixed point."""
    p_pi = _policy_chain(transitions, policy_probs)
    r_pi = (policy_probs * np.asarray(mean_rewards, dtype=np.float64)).sum(axis=-1)
    return _checked_solve(np.eye(policy_probs.shape[0]) - discount * p_pi, r_pi)


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
    p_pi = _policy_chain(transitions, policy_probs)
    a_mat = np.eye(policy_probs.shape[0]) - discount * np.swapaxes(p_pi, -1, -2)
    b = np.broadcast_to((1.0 - discount) * initial_dist, a_mat.shape[:-1])
    d_states = _checked_solve(a_mat, b)
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
