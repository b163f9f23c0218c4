"""Reference computations for the benchmark's correctness checks.

Written apart from ``opeci.solvers`` and ``opeci.empirical``: values come
from a state-level linear solve (the package solves at state-action level),
the empirical model is counted here from raw columns, and the IS/DR
estimates use closed-form cumulative products instead of the package's
backward recursion (Thomas et al. 2015; Jiang & Li 2016).
"""

from __future__ import annotations

import json
import math

import numpy as np


def state_level_solve(mean_reward, transitions, initial_dist, probs, gamma):
    """Normalized value (1-gamma) mu0.V and the state values V.

    V solves (I - gamma P_pi) V = r_pi with P_pi[s, s'] = sum_a pi(a|s) T[s, a, s'].
    """
    p_pi = np.einsum("sa,sat->st", probs, transitions)
    r_pi = (probs * mean_reward).sum(axis=1)
    v = np.linalg.solve(np.eye(len(r_pi)) - gamma * p_pi, r_pi)
    return (1.0 - gamma) * float(initial_dist @ v), v


def support_means(rewards) -> np.ndarray:
    """Expected reward per (s, a) from finite ((value, prob), ...) supports."""
    return np.array([[sum(v * p for v, p in support) for support in row] for row in rewards])


def true_value(mdp, policy) -> float:
    """Exact normalized value of ``policy`` from the MDP's tables."""
    value, _ = state_level_solve(
        support_means(mdp.rewards), np.asarray(mdp.transitions),
        np.asarray(mdp.initial_dist), np.asarray(policy.probs), mdp.discount,
    )
    return value


class CountModel:
    """The kappa=0 count model of a tuple set, counted a piece at a time.

    Visited pairs use observed reward means and next-state frequencies;
    unvisited pairs absorb in place with reward 0.  The start distribution is
    the s0 frequency over tuples.
    """

    def __init__(self, num_states: int, num_actions: int):
        self.S, self.A = num_states, num_actions
        self.n = np.zeros(num_states * num_actions)
        self.reward = np.zeros(num_states * num_actions)
        self.trans = np.zeros((num_states * num_actions, num_states))
        self.start = np.zeros(num_states)

    def add(self, s0, s, a, r, sp) -> None:
        """Count tuples given as columns; s0 is each tuple's start state, or one for all."""
        sa = np.asarray(s) * self.A + np.asarray(a)
        np.add.at(self.n, sa, 1.0)
        np.add.at(self.reward, sa, r)
        np.add.at(self.trans, (sa, np.asarray(sp)), 1.0)
        np.add.at(self.start, np.broadcast_to(s0, sa.shape), 1.0)

    def solve(self, probs, gamma):
        """(normalized DM value, Q of shape (S, A)) of ``probs`` under the model."""
        S, A = self.S, self.A
        visited = self.n > 0
        mean_reward = np.zeros(S * A)
        mean_reward[visited] = self.reward[visited] / self.n[visited]
        trans = self.trans.copy()
        trans[visited] /= self.n[visited, None]
        unvisited = np.flatnonzero(~visited)
        trans[unvisited, unvisited // A] = 1.0
        mean_reward, trans = mean_reward.reshape(S, A), trans.reshape(S, A, S)
        value, v = state_level_solve(mean_reward, trans, self.start / self.start.sum(), probs, gamma)
        return value, mean_reward + gamma * trans @ v


def read_episodes(path):
    """Yield an episodes file's metadata header, then (initial_state, steps) per episode.

    The JSON-lines file is read one line at a time, so no more than one
    episode is held; ``steps`` is a (T, 6) array of s, a, r, s', b(a|s), terminal.
    """
    with open(path) as fh:
        yield json.loads(fh.readline())["meta"]
        for line in fh:
            if line.strip():
                doc = json.loads(line)
                yield doc["initial_state"], np.array(doc["steps"], dtype=float).reshape(-1, 6)


def episode_estimate(steps, probs, gamma, q=None) -> float:
    """PDIS value of one episode, or its DR value when a Q-table is given.

    PDIS = (1-g) sum_t g^t w_t r_t and
    DR   = (1-g) sum_t g^t (w_{t-1} V(s_t) + w_t (r_t - Q(s_t, a_t))),
    with w_t the cumulative product of pi/b ratios and w_{-1} = 1.
    """
    s, a, r = steps[:, 0].astype(int), steps[:, 1].astype(int), steps[:, 2]
    w = np.cumprod(probs[s, a] / steps[:, 4])
    disc = gamma ** np.arange(len(r))
    if q is None:
        terms = w * r
    else:
        v = (probs * q).sum(axis=1)
        terms = np.r_[1.0, w[:-1]] * v[s] + w * (r - q[s, a])
    return (1.0 - gamma) * float(disc @ terms)


def file_estimates(path, probs):
    """(metadata, episode count, mean PDIS, mean DR) of an episodes file.

    Two passes, one episode at a time: the first counts the model whose
    Q-table DR uses, the second sums the per-episode estimates.
    """
    episodes = read_episodes(path)
    meta = next(episodes)
    model = CountModel(*probs.shape)
    count = 0
    for s0, steps in episodes:
        cols = steps[:, :4].T
        model.add(s0, cols[0].astype(int), cols[1].astype(int), cols[2], cols[3].astype(int))
        count += 1
    gamma = meta["discount"]
    _, q = model.solve(probs, gamma)
    episodes = read_episodes(path)
    next(episodes)
    pdis = dr = 0.0
    for _, steps in episodes:
        pdis += episode_estimate(steps, probs, gamma)
        dr += episode_estimate(steps, probs, gamma, q)
    return meta, count, pdis / count, dr / count


def wilson_band(p: float, trials: int, z: float) -> tuple:
    """Wilson score interval of a proportion p observed over ``trials``."""
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(x) and math.isfinite(y) and abs(x - y) <= atol + rtol * abs(y)
