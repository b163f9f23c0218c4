"""Ground-truth tabular MDPs, policies, exact evaluation, and rollouts.

States and actions are integer indices.  Rewards are finite-support
distributions per (state, action); transitions are row-stochastic tables.
All types are immutable after construction and all operations are pure given
an explicit seed, so they are safe to share across worker processes.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from copy import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
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


def _reward_table(rewards, num_states: int, num_actions: int, r_max: float) -> tuple:
    """rewards[s][a] as tuples of (value, prob) float pairs, once each support
    has non-negative probabilities summing to 1 and values within ``r_max``.
    Every test fails on NaN."""
    S, A = num_states, num_actions
    if len(rewards) != S or any(len(row) != A for row in rewards):
        raise ValidationError(f"rewards must hold {S} rows of {A} supports each")
    table = tuple(
        tuple(tuple((float(v), float(p)) for v, p in support) for support in row)
        for row in rewards
    )
    for s, row in enumerate(table):
        for a, support in enumerate(row):
            deficit = 1.0 - sum(p for _, p in support)
            if not (abs(deficit) <= _SUM_TOL and all(p >= 0.0 for _, p in support)):
                raise ValidationError(
                    f"reward support at (s={s}, a={a}) must be non-negative and sum to 1 "
                    f"(deficit {deficit})"
                )
            if not all(abs(v) <= r_max for v, _ in support):
                raise ValidationError(
                    f"reward values at (s={s}, a={a}) exceed bound r_max={r_max}: {support}"
                )
    return table


def check_discount(discount) -> float:
    """``discount`` as a float once it lies in [0, 1); NaN does not."""
    if not 0.0 <= discount < 1.0:
        raise ValidationError(f"discount must lie in [0, 1), not {discount!r}")
    return float(discount)


def check_policy(policy: "Policy", space) -> None:
    """Raise unless ``policy`` has one row per state and one column per action
    of ``space``: an MDP, an empirical model or an episode set."""
    shape = (space.num_states, space.num_actions)
    if policy.probs.shape != shape:
        raise ValidationError(
            f"policy shape {policy.probs.shape} does not match the {shape[0]} states and "
            f"{shape[1]} actions of the {type(space).__name__}"
        )


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite MDP with finite-support reward distributions, checked once on
    construction.

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
        S, A = self.num_states, self.num_actions
        transitions, initial = _freeze(self.transitions), _freeze(self.initial_dist)
        for name, table, shape in (
            ("transitions", transitions, (S, A, S)), ("initial_dist", initial, (S,)),
        ):
            if min(S, A) < 1 or table.shape != shape:
                raise ValidationError(f"{name} shape {table.shape} != {shape}")
        discount, r_max = check_discount(self.discount), float(self.r_max)
        rewards = _reward_table(self.rewards, S, A, r_max)
        # NaN fails every test below.
        sums = transitions.sum(axis=2)
        if not (1.0 - _SUM_TOL <= sums.min() and sums.max() <= 1.0 + _SUM_TOL
                and transitions.min() >= 0.0):
            deficit = np.abs(1.0 - sums)
            s, a = np.argwhere(~(deficit <= _SUM_TOL) | (transitions < 0.0).any(axis=2))[0]
            raise ValidationError(
                f"transition row at (s={s}, a={a}) must be non-negative and sum to 1 "
                f"(deficit {deficit[s, a]})"
            )
        deficit = abs(1.0 - initial.sum())
        if not (deficit <= _SUM_TOL and initial.min() >= 0.0):
            raise ValidationError(
                f"initial_dist must be non-negative and sum to 1 (deficit {deficit})"
            )
        terminal = sorted(set(map(int, self.terminal_states)))
        if terminal:
            if not 0 <= terminal[0] <= terminal[-1] < S:
                raise ValidationError(f"terminal states {terminal} must lie in [0, {S})")
            stays = np.abs(transitions[terminal, :, terminal] - 1.0) <= _SUM_TOL
            if not stays.all():
                t, a = np.argwhere(~stays)[0]
                raise ValidationError(
                    f"terminal state {terminal[t]} is not absorbing under action {a}"
                )
        means = [[sum(v * p for v, p in support) for support in row] for row in rewards]
        for name, value in (
            ("transitions", transitions), ("initial_dist", initial), ("rewards", rewards),
            ("terminal_states", frozenset(terminal)), ("discount", discount), ("r_max", r_max),
            ("_mean_rewards", _freeze(means)),
        ):
            object.__setattr__(self, name, value)

    def mean_rewards(self) -> np.ndarray:
        """Expected reward per (s, a), read-only."""
        return self._mean_rewards

    def with_discount(self, discount: float) -> "TabularMdp":
        """A copy with another discount; its already checked tables are shared."""
        mdp = copy(self)
        object.__setattr__(mdp, "discount", check_discount(discount))
        return mdp


@dataclass(frozen=True, eq=False)
class Policy:
    """Stochastic action table pi(a|s), one row per state."""

    probs: np.ndarray  # (S, A)

    def __post_init__(self):
        probs = _freeze(self.probs)
        if probs.ndim != 2 or probs.size == 0:
            raise ValidationError(
                f"policy table must be a non-empty (S, A) array, not shape {probs.shape}"
            )
        deficit = np.abs(probs.sum(axis=1) - 1.0).max()
        # NaN fails both comparisons and an infinite entry leaves an infinite deficit.
        if not (probs.min() >= 0.0 and deficit <= _SUM_TOL):
            raise ValidationError(
                f"policy rows must be finite, non-negative and sum to 1 (worst deficit {deficit})"
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


class StepColumns(NamedTuple):
    """Step columns in episode order; ``s0`` and ``lengths`` hold one entry
    per episode."""

    s0: np.ndarray
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    sp: np.ndarray
    behavior_prob: np.ndarray
    terminal: np.ndarray
    lengths: np.ndarray


COLUMN_DTYPES = StepColumns(*map(np.dtype, ("i8", "i8", "i8", "f8", "i8", "f8", "?", "i8")))


@dataclass(frozen=True, eq=False)
class EpisodeSet:
    """Logged episodes as read-only step ``columns``, checked once on
    construction; ``episodes`` views them as ``Episode``s of ``Step``s."""

    columns: StepColumns
    num_states: int
    num_actions: int

    def __post_init__(self):
        cols = StepColumns(*map(np.asarray, self.columns))
        for name, column, dtype in zip(cols._fields, cols, COLUMN_DTYPES):
            # Kinds are checked, not coerced: integer columns stay integer and flags boolean.
            if column.ndim != 1 or column.dtype.kind != dtype.kind:
                raise ValidationError(
                    f"column {name} is {column.ndim}-d {column.dtype}, not 1-d {dtype}"
                )
        cols = StepColumns(*map(np.ascontiguousarray, cols, COLUMN_DTYPES))
        for column in cols:
            column.setflags(write=False)
        lengths = cols.lengths
        sizes = {column.size for column in cols[1:7]} | {int(lengths.sum())}
        if len(sizes) > 1 or lengths.size != cols.s0.size or (lengths < 0).any():
            raise ValidationError(
                "episode lengths must be non-negative, one per initial state, and sum to the "
                "size of every step column"
            )
        S, A, p = self.num_states, self.num_actions, cols.behavior_prob
        for name, column, ok, allowed in (
            ("initial state", cols.s0, (cols.s0 >= 0) & (cols.s0 < S), f"[0, {S})"),
            ("state", cols.s, (cols.s >= 0) & (cols.s < S), f"[0, {S})"),
            ("next state", cols.sp, (cols.sp >= 0) & (cols.sp < S), f"[0, {S})"),
            ("action", cols.a, (cols.a >= 0) & (cols.a < A), f"[0, {A})"),
            ("behavior probability", p, (p > 0.0) & (p <= 1.0), "(0, 1]"),  # NaN fails both
            ("reward", cols.r, np.isfinite(cols.r), "the finite numbers"),
        ):
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise ValidationError(f"logged {name} {column[bad[0]]} is outside {allowed}")
        object.__setattr__(self, "columns", cols)

    def __eq__(self, other):
        if not isinstance(other, EpisodeSet):
            return NotImplemented
        same_sizes = (self.num_states, self.num_actions) == (other.num_states, other.num_actions)
        return same_sizes and all(map(np.array_equal, self.columns, other.columns))

    def __len__(self) -> int:
        return len(self.columns.lengths)

    @cached_property
    def episodes(self) -> tuple:
        """Read-only view of the columns, built on first use."""
        cols = self.columns
        # tuple.__new__ builds each Step without a Python-level call per step.
        steps = map(tuple.__new__, repeat(Step), zip(*(col.tolist() for col in cols[1:7])))
        # No cycles form, and collections walking millions of new Steps cost most of the build.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return tuple(Episode(s0, tuple(islice(steps, length)))
                         for s0, length in zip(cols.s0.tolist(), cols.lengths.tolist()))
        finally:
            if collecting:
                gc.enable()

    @property
    def truncated(self) -> int:
        """Episodes with at least one step whose last step is not terminal."""
        lengths = self.columns.lengths
        last = np.cumsum(lengths)[lengths > 0] - 1
        return int(np.count_nonzero(~self.columns.terminal[last]))


def exact_policy_value(mdp: TabularMdp, policy: Policy) -> float:
    """Normalized policy value via an exact linear solve."""
    check_policy(policy, mdp)
    return solvers.policy_value(
        mdp.mean_rewards(), mdp.transitions, mdp.initial_dist, policy.probs, mdp.discount
    )


def on_policy_distribution(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """Discounted state-action visitation distribution of the policy."""
    check_policy(policy, mdp)
    return solvers.on_policy_distribution_table(
        mdp.transitions, mdp.initial_dist, policy.probs, mdp.discount
    )


def q_values(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """Un-normalized Q(s,a) satisfying the exact Bellman identity."""
    check_policy(policy, mdp)
    return solvers.q_table(mdp.mean_rewards(), mdp.transitions, policy.probs, mdp.discount)


def _cdf(probs) -> list:
    """Cumulative sums along the last axis as nested lists, each ending in +inf
    so that ``bisect_right(cdf, u)`` gives the last category any uniform
    ``u`` at or above the rounded total."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = np.inf
    return cum.tolist()


def _uniforms(rng, block: int):
    while True:
        yield from rng.random(block).tolist()


class CategoricalDraws:
    """The one place that does categorical sampling: inverse-CDF draws from an
    MDP, one uniform each, taken from ``rng`` ``block`` uniforms at a time."""

    def __init__(self, mdp: TabularMdp, rng, block: int):
        self.next_uniform = _uniforms(rng, block).__next__
        self.init_cdf, self.trans_cdf = _cdf(mdp.initial_dist), _cdf(mdp.transitions)
        rewards = mdp.rewards
        self.reward_values = [[[v for v, _ in support] for support in row] for row in rewards]
        self.reward_cdf = [[_cdf([p for _, p in support]) for support in row] for row in rewards]

    def pick(self, cdf: list) -> int:
        return bisect_right(cdf, self.next_uniform())

    def outcome(self, s: int, a: int) -> tuple:
        """(reward, next state) of one step from (s, a), drawn in that order."""
        reward = self.reward_values[s][a][self.pick(self.reward_cdf[s][a])]
        return reward, self.pick(self.trans_cdf[s][a])


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
    seed.  Uniforms are drawn in blocks, so a ``Generator`` passed as the
    seed ends up advanced past the draws used.
    """
    if max_horizon < 1:
        raise ValidationError("max_horizon must be >= 1")
    check_policy(policy, mdp)
    draws = CategoricalDraws(mdp, as_generator(rng_seed), block=4096)
    pick, outcome = draws.pick, draws.outcome
    policy_cdf, probs = _cdf(policy.probs), policy.probs.tolist()
    terminal = [s in mdp.terminal_states for s in range(mdp.num_states)]
    lists = StepColumns(*([] for _ in StepColumns._fields))
    for _ in range(count):
        s = pick(draws.init_cdf)
        lists.s0.append(s)
        length = 0
        while length < max_horizon and not terminal[s]:
            a = pick(policy_cdf[s])
            r, ns = outcome(s, a)
            lists.s.append(s)
            lists.a.append(a)
            lists.r.append(r)
            lists.sp.append(ns)
            lists.behavior_prob.append(probs[s][a])
            lists.terminal.append(terminal[ns])
            s = ns
            length += 1
        lists.lengths.append(length)
    columns = StepColumns(*map(np.array, lists, COLUMN_DTYPES))
    return EpisodeSet(columns, mdp.num_states, mdp.num_actions)


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
    gamma = mdp.discount
    cap = solvers._contraction_iteration_cap(gamma, tol, float(np.abs(rbar).max()))
    q, _ = solvers.fixed_point(
        lambda q: rbar + gamma * (flat_t @ q.max(axis=1)).reshape(q.shape),
        np.zeros((mdp.num_states, mdp.num_actions)), tol, cap, "value iteration",
    )
    probs = np.zeros_like(q)
    probs[np.arange(mdp.num_states), q.argmax(axis=1)] = 1.0
    return Policy(probs)


def make_random_mdp(num_states: int, num_actions: int, discount: float, rng_seed) -> TabularMdp:
    """Random dense MDP with Dirichlet rows and three-point rewards in
    [-1, 1]; handy for oracle cross-checks."""
    rng = as_generator(rng_seed)
    transitions = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    rewards = []
    for _ in range(num_states):
        row = []
        for _ in range(num_actions):
            values = rng.uniform(-1.0, 1.0, size=3)
            probs = rng.dirichlet(np.ones(3))
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
        r_max=1.0,
    )


def make_random_policy(num_states: int, num_actions: int, rng_seed) -> Policy:
    rng = as_generator(rng_seed)
    return Policy(rng.dirichlet(np.ones(num_actions), size=num_states))
