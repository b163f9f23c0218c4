"""Ground-truth tabular MDPs, policies, exact evaluation, and rollouts.

States and actions are integer indices.  Rewards are finite-support
distributions per (state, action); transitions are row-stochastic tables.
All types are immutable after construction and all operations are pure given
an explicit seed, so they are safe to share across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import SolverError, ValidationError
from .seeding import as_generator
from . import solvers

_SUM_TOL = 1e-12

# Grid-world action indices and their row/col offsets (gym convention).
LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3
_MOVES = {LEFT: (0, -1), DOWN: (1, 0), RIGHT: (0, 1), UP: (-1, 0)}

DEFAULT_LAKE_MAP = ("SFFF", "FHFH", "FFFH", "HFFG")


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=np.float64)
    array.setflags(write=False)
    return array


def _as_reward_table(rewards, num_states: int, num_actions: int) -> tuple:
    """Canonicalize rewards[s][a] into tuples of (value, prob) float pairs."""
    table = []
    for s in range(num_states):
        row = []
        for a in range(num_actions):
            support = tuple((float(v), float(p)) for v, p in rewards[s][a])
            if not support:
                raise ValidationError(f"empty reward support at (s={s}, a={a})")
            row.append(support)
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite MDP with finite-support reward distributions.

    ``terminal_states`` are absorbing: episode sampling stops on entering
    them and their designated self-loop reward is whatever ``rewards``
    assigns there (zero for every built-in constructor, which keeps sampled
    returns equal to the infinite-horizon value).  The exact solvers always
    use the full tables and do not treat terminal states specially.
    """

    num_states: int
    num_actions: int
    transitions: np.ndarray  # (S, A, S), rows sum to 1
    rewards: tuple  # rewards[s][a] = ((value, prob), ...)
    initial_dist: np.ndarray  # (S,)
    discount: float
    terminal_states: frozenset = frozenset()
    r_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "transitions", _freeze(np.asarray(self.transitions)))
        object.__setattr__(self, "initial_dist", _freeze(np.asarray(self.initial_dist)))
        object.__setattr__(
            self, "rewards", _as_reward_table(self.rewards, self.num_states, self.num_actions)
        )
        object.__setattr__(self, "terminal_states", frozenset(int(s) for s in self.terminal_states))

    def mean_rewards(self) -> np.ndarray:
        """Expected reward per (s, a)."""
        out = np.zeros((self.num_states, self.num_actions))
        for s in range(self.num_states):
            for a in range(self.num_actions):
                out[s, a] = sum(v * p for v, p in self.rewards[s][a])
        return out

    def with_discount(self, discount: float) -> "TabularMdp":
        return replace(self, discount=float(discount))


@dataclass(frozen=True, eq=False)
class Policy:
    """Stochastic action table pi(a|s), one row per state."""

    probs: np.ndarray  # (S, A)

    def __post_init__(self):
        probs = _freeze(np.asarray(self.probs))
        if probs.ndim != 2 or probs.size == 0:
            raise ValidationError(
                f"policy table must be a non-empty (S, A) array, not shape {probs.shape}"
            )
        deficit = np.abs(probs.sum(axis=1) - 1.0).max()
        # NaN fails both comparisons and an infinite entry leaves an infinite deficit.
        if not (probs.min() >= 0.0 and deficit <= _SUM_TOL):
            raise ValidationError(
                f"policy rows must be finite, non-negative and sum to 1 (worst deficit {deficit!r})"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


class Step(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int
    behavior_prob: float
    terminal: bool


@dataclass(frozen=True)
class Episode:
    initial_state: int
    steps: tuple  # tuple[Step, ...]


@dataclass(frozen=True)
class EpisodeSet:
    episodes: tuple  # tuple[Episode, ...]
    num_states: int
    num_actions: int

    def __len__(self) -> int:
        return len(self.episodes)


def validate(mdp: TabularMdp) -> list:
    """Report violated invariants as human-readable strings (empty if valid)."""
    problems: list[str] = []
    S, A = mdp.num_states, mdp.num_actions
    if mdp.transitions.shape != (S, A, S):
        problems.append(f"transitions shape {mdp.transitions.shape} != {(S, A, S)}")
        return problems
    if mdp.initial_dist.shape != (S,):
        problems.append(f"initial_dist shape {mdp.initial_dist.shape} != {(S,)}")
        return problems
    if not 0.0 <= mdp.discount < 1.0:
        problems.append(f"discount {mdp.discount} outside [0, 1)")
    for s in range(S):
        for a in range(A):
            row = mdp.transitions[s, a]
            total = row.sum()
            if abs(total - 1.0) > _SUM_TOL:
                problems.append(
                    f"transition row (s={s}, a={a}) sums to {total!r} (deficit {1.0 - total!r})"
                )
            if (row < 0).any():
                problems.append(f"transition row (s={s}, a={a}) has negative entries")
            support = mdp.rewards[s][a]
            ptotal = sum(p for _, p in support)
            if abs(ptotal - 1.0) > _SUM_TOL:
                problems.append(
                    f"reward support at (s={s}, a={a}) sums to {ptotal!r} (deficit {1.0 - ptotal!r})"
                )
            if any(p < 0 for _, p in support):
                problems.append(f"reward support at (s={s}, a={a}) has negative probabilities")
            for v, _ in support:
                if abs(v) > mdp.r_max:
                    problems.append(
                        f"reward value {v} at (s={s}, a={a}) exceeds bound r_max={mdp.r_max}"
                    )
    init_total = mdp.initial_dist.sum()
    if abs(init_total - 1.0) > _SUM_TOL:
        problems.append(f"initial_dist sums to {init_total!r} (deficit {1.0 - init_total!r})")
    if (mdp.initial_dist < 0).any():
        problems.append("initial_dist has negative entries")
    for s in mdp.terminal_states:
        for a in range(A):
            if abs(mdp.transitions[s, a, s] - 1.0) > _SUM_TOL:
                problems.append(f"terminal state {s} is not absorbing under action {a}")
    return problems


def _check_compat(mdp: TabularMdp, policy: Policy) -> None:
    if policy.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValidationError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.num_states} states, {mdp.num_actions} actions)"
        )


def exact_policy_value(mdp: TabularMdp, policy: Policy) -> float:
    """Normalized policy value via an exact linear solve."""
    _check_compat(mdp, policy)
    return solvers.policy_value(
        mdp.mean_rewards(), mdp.transitions, mdp.initial_dist, policy.probs, mdp.discount
    )


def on_policy_distribution(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """Discounted state-action visitation distribution of the policy."""
    _check_compat(mdp, policy)
    return solvers.on_policy_distribution_table(
        mdp.transitions, mdp.initial_dist, policy.probs, mdp.discount
    )


def q_values(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """Un-normalized Q(s,a) satisfying the exact Bellman identity."""
    _check_compat(mdp, policy)
    return solvers.q_table(mdp.mean_rewards(), mdp.transitions, policy.probs, mdp.discount)


def normalized_return(episode: Episode, discount: float) -> float:
    """(1-discount)-normalized discounted return of one episode."""
    total = 0.0
    weight = 1.0
    for step in episode.steps:
        total += weight * step.reward
        weight *= discount
    return (1.0 - discount) * total


class _CategoricalTables:
    """Pre-computed cumulative tables of an MDP for fast per-step sampling."""

    def __init__(self, mdp: TabularMdp):
        self.trans_cum = np.cumsum(mdp.transitions, axis=2)
        self.init_cum = np.cumsum(mdp.initial_dist)
        self.reward_values = [
            [np.array([v for v, _ in mdp.rewards[s][a]]) for a in range(mdp.num_actions)]
            for s in range(mdp.num_states)
        ]
        self.reward_cum = [
            [np.cumsum([p for _, p in mdp.rewards[s][a]]) for a in range(mdp.num_actions)]
            for s in range(mdp.num_states)
        ]


def _pick(cum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(cum) - 1)


def sample_episodes(
    mdp: TabularMdp,
    policy: Policy,
    count: int,
    max_horizon: int,
    rng_seed,
) -> EpisodeSet:
    """Roll out ``count`` episodes under ``policy``, recording behavior probs.

    Episodes start from the MDP's initial distribution and stop on entering a
    terminal state or after ``max_horizon`` steps.  Deterministic given the
    seed.
    """
    if max_horizon < 1:
        raise ValidationError("max_horizon must be >= 1")
    _check_compat(mdp, policy)
    rng = as_generator(rng_seed)
    tables = _CategoricalTables(mdp)
    policy_cum = np.cumsum(policy.probs, axis=1)
    terminal = mdp.terminal_states
    episodes = []
    for _ in range(count):
        s0 = _pick(tables.init_cum, rng.random())
        steps = []
        s = s0
        for _ in range(max_horizon):
            if s in terminal:
                break
            a = _pick(policy_cum[s], rng.random())
            r = float(tables.reward_values[s][a][_pick(tables.reward_cum[s][a], rng.random())])
            ns = _pick(tables.trans_cum[s, a], rng.random())
            steps.append(Step(s, a, r, ns, float(policy.probs[s, a]), ns in terminal))
            s = ns
        episodes.append(Episode(initial_state=s0, steps=tuple(steps)))
    return EpisodeSet(tuple(episodes), mdp.num_states, mdp.num_actions)


def _deterministic_reward(value: float) -> tuple:
    return ((float(value), 1.0),)


def make_frozen_lake(
    slip_prob: float = 0.25,
    grid=DEFAULT_LAKE_MAP,
    discount: float = 0.999,
) -> TabularMdp:
    """Grid world over row strings of S/F/H/G cells.

    Movement slips to each perpendicular direction with probability
    ``slip_prob`` (the intended direction keeps ``1 - 2*slip_prob``); moving
    off-grid stays in place.  Reaching the goal pays 1 on the exit step and
    then absorbs with reward 0; holes absorb immediately with reward 0.
    The 0.25 default slip keeps a near-optimal policy's value in the high
    1e-4 range at discount 0.999; pass 1/3 for the harsher classic dynamics.
    """
    if not 0.0 <= slip_prob <= 0.5:
        raise ValidationError("slip_prob must lie in [0, 0.5]")
    rows = [str(r) for r in grid]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("grid must be a non-empty rectangle of row strings")
    n_rows, n_cols = len(rows), len(rows[0])
    cells = "".join(rows)
    if any(c not in "SFHG" for c in cells):
        raise ValidationError("grid cells must be one of S/F/H/G")
    if cells.count("S") != 1:
        raise ValidationError("grid must contain exactly one start cell")
    if cells.count("G") < 1:
        raise ValidationError("grid must contain at least one goal cell")

    n_cells = n_rows * n_cols
    sink = n_cells
    num_states = n_cells + 1
    num_actions = 4
    transitions = np.zeros((num_states, num_actions, num_states))
    rewards = [
        [_deterministic_reward(0.0) for _ in range(num_actions)] for _ in range(num_states)
    ]
    terminal = {sink}

    def cell_index(row: int, col: int) -> int:
        return row * n_cols + col

    def move(row: int, col: int, action: int) -> int:
        dr, dc = _MOVES[action]
        nr, nc = row + dr, col + dc
        if 0 <= nr < n_rows and 0 <= nc < n_cols:
            return cell_index(nr, nc)
        return cell_index(row, col)

    for row in range(n_rows):
        for col in range(n_cols):
            idx = cell_index(row, col)
            kind = rows[row][col]
            if kind == "H":
                transitions[idx, :, idx] = 1.0
                terminal.add(idx)
                continue
            if kind == "G":
                transitions[idx, :, sink] = 1.0
                for a in range(num_actions):
                    rewards[idx][a] = _deterministic_reward(1.0)
                continue
            for a in range(num_actions):
                transitions[idx, a, move(row, col, a)] += 1.0 - 2.0 * slip_prob
                transitions[idx, a, move(row, col, (a - 1) % 4)] += slip_prob
                transitions[idx, a, move(row, col, (a + 1) % 4)] += slip_prob
    transitions[sink, :, sink] = 1.0

    initial_dist = np.zeros(num_states)
    initial_dist[cells.index("S")] = 1.0
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        transitions=transitions,
        rewards=rewards,
        initial_dist=initial_dist,
        discount=float(discount),
        terminal_states=frozenset(terminal),
        r_max=1.0,
    )


def make_counterexample_chain(n_intermediate: int, discount: float) -> TabularMdp:
    """Single-action chain: start fans out to intermediate states, which feed
    an absorbing state that pays reward 1 forever.

    Branch n < N keeps probability 6/(pi^2 n^2) exactly; the truncated tail
    mass is folded into branch N.  All branches have identical reward paths,
    so truncation preserves the policy value exactly.
    """
    if n_intermediate < 1:
        raise ValidationError("n_intermediate must be >= 1")
    n = n_intermediate
    start, term = 0, n + 1
    num_states = n + 2
    transitions = np.zeros((num_states, 1, num_states))
    branch = np.array([6.0 / (math.pi**2 * k**2) for k in range(1, n + 1)])
    branch[-1] += 1.0 - branch.sum()
    transitions[start, 0, 1 : n + 1] = branch
    for k in range(1, n + 1):
        transitions[k, 0, term] = 1.0
    transitions[term, 0, term] = 1.0
    rewards = [[_deterministic_reward(0.0)] for _ in range(num_states)]
    rewards[term][0] = _deterministic_reward(1.0)
    initial_dist = np.zeros(num_states)
    initial_dist[start] = 1.0
    # term pays on its self-loop, so it must stay un-terminal for sampling.
    return TabularMdp(
        num_states=num_states,
        num_actions=1,
        transitions=transitions,
        rewards=rewards,
        initial_dist=initial_dist,
        discount=float(discount),
        terminal_states=frozenset(),
        r_max=1.0,
    )


def make_bernoulli_bandit(p: float = 0.5) -> TabularMdp:
    """One-state, one-action MDP with Bernoulli(p) rewards at discount 0."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    return TabularMdp(
        num_states=1,
        num_actions=1,
        transitions=np.ones((1, 1, 1)),
        rewards=[[((0.0, 1.0 - p), (1.0, p))]],
        initial_dist=np.ones(1),
        discount=0.0,
        terminal_states=frozenset(),
        r_max=1.0,
    )


def perturb_policy_epsilon_greedy(policy: Policy, epsilon: float) -> Policy:
    """Mix each row with the uniform distribution over all actions."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError("epsilon must lie in [0, 1]")
    uniform = 1.0 / policy.num_actions
    return Policy((1.0 - epsilon) * policy.probs + epsilon * uniform)


def uniform_policy(num_states: int, num_actions: int) -> Policy:
    return Policy(np.full((num_states, num_actions), 1.0 / num_actions))


def optimal_policy(mdp: TabularMdp, tol: float = 1e-12) -> Policy:
    """Deterministic greedy policy from value iteration (ties: lowest index)."""
    rbar = mdp.mean_rewards()
    flat_t = mdp.transitions.reshape(-1, mdp.num_states)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    gamma = mdp.discount
    cap = solvers._contraction_iteration_cap(gamma, tol, float(np.abs(rbar).max()))
    for _ in range(cap):
        v = q.max(axis=1)
        q_next = rbar + gamma * (flat_t @ v).reshape(q.shape)
        delta = np.abs(q_next - q).max()
        q = q_next
        if delta <= tol:
            break
    else:
        raise SolverError("value iteration did not converge")
    probs = np.zeros_like(q)
    probs[np.arange(mdp.num_states), q.argmax(axis=1)] = 1.0
    return Policy(probs)


def make_random_mdp(
    num_states: int,
    num_actions: int,
    discount: float,
    rng_seed,
    reward_support_size: int = 3,
    r_max: float = 1.0,
) -> TabularMdp:
    """Random dense MDP with Dirichlet rows; handy for oracle cross-checks."""
    rng = as_generator(rng_seed)
    transitions = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    rewards = []
    for _ in range(num_states):
        row = []
        for _ in range(num_actions):
            values = rng.uniform(-r_max, r_max, size=reward_support_size)
            probs = rng.dirichlet(np.ones(reward_support_size))
            row.append(tuple(zip(values.tolist(), probs.tolist())))
        rewards.append(row)
    initial_dist = rng.dirichlet(np.ones(num_states))
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        transitions=transitions,
        rewards=rewards,
        initial_dist=initial_dist,
        discount=float(discount),
        terminal_states=frozenset(),
        r_max=r_max,
    )


def make_random_policy(num_states: int, num_actions: int, rng_seed) -> Policy:
    rng = as_generator(rng_seed)
    return Policy(rng.dirichlet(np.ones(num_actions), size=num_states))
