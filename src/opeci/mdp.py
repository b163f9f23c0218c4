"""Ground-truth tabular MDPs, policies, exact evaluation, and rollouts.

States and actions are integer indices.  Rewards are finite-support
distributions per (state, action); transitions are row-stochastic tables.
All types are immutable after construction and all operations are pure given
an explicit seed, so they are safe to share across worker processes.
"""

from __future__ import annotations

import gc
import math
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat, zip_longest
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


def _freeze(array, dtype=np.float64) -> np.ndarray:
    """A contiguous, read-only ``dtype`` array of ``array``: the array itself,
    made read-only, when it already is contiguous ``dtype``, else a copy."""
    array = np.ascontiguousarray(array, dtype)
    array.setflags(write=False)
    return array


def check_rows(table, what: str) -> np.ndarray:
    """``table`` frozen, once every row along its last axis is non-negative
    and sums to 1 within ``_SUM_TOL``; NaN and +-inf fail both tests.
    Otherwise raises ValidationError naming ``what``, the first bad row by
    (s, a) and its deficit; a ragged or non-numeric table raises it too."""
    try:
        table = _freeze(table)
        deficit = 1.0 - table.sum(axis=-1)
    except (TypeError, ValueError) as exc:  # also a 0-d table, which has no rows
        raise ValidationError(f"{what} entries must be numbers in equal-length rows ({exc})") from None
    if not (np.abs(deficit).max(initial=0.0) <= _SUM_TOL and table.min(initial=0.0) >= 0.0):
        bad = ~((np.abs(deficit) <= _SUM_TOL) & (table >= 0.0).all(axis=-1))
        row = tuple(np.argwhere(bad)[0])
        at = f" at ({', '.join(f'{k}={i}' for k, i in zip('sa', row))})" if row else ""
        raise ValidationError(f"{what}{at} must be non-negative and sum to 1 (deficit {deficit[row]})")
    return table


def _reward_table(rewards, num_states: int, num_actions: int, r_max: float) -> tuple:
    """rewards[s][a] as tuples of (value, prob) float pairs, once the supports,
    padded with (0, 0) pairs as ``outcome_tables`` pads them, pass
    ``check_rows`` and every value lies within ``r_max`` (NaN does not)."""
    S, A = num_states, num_actions
    if len(rewards) != S or any(len(row) != A for row in rewards):
        raise ValidationError(f"rewards must hold {S} rows of {A} supports each")
    table = tuple(
        tuple(tuple((float(v), float(p)) for v, p in support) for support in row)
        for row in rewards
    )
    supports = [support for row in table for support in row]
    padded = np.array(list(zip_longest(*supports, fillvalue=(0.0, 0.0)))).reshape(-1, S * A, 2)
    check_rows(padded[..., 1].T.reshape(S, A, -1), "reward support")
    values = np.abs(padded[..., 0])
    if not values.max(initial=0.0) <= r_max:
        s, a = divmod(int(np.flatnonzero(~(values <= r_max).all(axis=0))[0]), A)
        raise ValidationError(
            f"reward values at (s={s}, a={a}) exceed bound r_max={r_max}: {table[s][a]}"
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
    mean_reward: np.ndarray = field(init=False, repr=False)  # (S, A) expected reward, read-only

    def __post_init__(self):
        S, A = self.num_states, self.num_actions
        transitions = check_rows(self.transitions, "transition row")
        initial = check_rows(self.initial_dist, "initial_dist")
        for name, table, shape in (
            ("transitions", transitions, (S, A, S)), ("initial_dist", initial, (S,)),
        ):
            if min(S, A) < 1 or table.shape != shape:
                raise ValidationError(f"{name} shape {table.shape} != {shape}")
        discount, r_max = check_discount(self.discount), float(self.r_max)
        rewards = _reward_table(self.rewards, S, A, r_max)
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
            ("mean_reward", _freeze(means)),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def outcome_tables(self) -> tuple:
        """Read-only (values, reward_cdf, transition_cdf), one column per pair
        ``s*A + a``; each reward CDF is +inf from its support's last entry on."""
        S, A = self.num_states, self.num_actions
        supports = [support for row in self.rewards for support in row]
        padded = np.array(list(zip_longest(*supports, fillvalue=(0.0, 0.0))))  # (K, S*A, 2)
        reward_cdf = _cdf(padded[..., 1])
        reward_cdf[np.arange(len(padded))[:, None] >= np.array(list(map(len, supports))) - 1] = np.inf
        tables = padded[..., 0], reward_cdf, _cdf(self.transitions.reshape(S * A, S).T)
        return tuple(map(_freeze, tables))

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
        probs = check_rows(self.probs, "policy row")
        if probs.ndim != 2 or probs.size == 0:
            raise ValidationError(
                f"policy table must be a non-empty (S, A) array, not shape {probs.shape}"
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
        cols = StepColumns(*map(_freeze, cols, COLUMN_DTYPES))
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


def exact_policy_value(model, policy: Policy) -> float:
    """Normalized policy value in a TabularMdp or EmpiricalModel, by exact linear solve."""
    check_policy(policy, model)
    return solvers.policy_value(
        model.mean_reward, model.transitions, model.initial_dist, policy.probs, model.discount
    )


def on_policy_distribution(model, policy: Policy) -> np.ndarray:
    """Discounted state-action visitation of the policy in a TabularMdp or EmpiricalModel."""
    check_policy(policy, model)
    return solvers.on_policy_distribution_table(
        model.transitions, model.initial_dist, policy.probs, model.discount
    )


def q_values(model, policy: Policy) -> np.ndarray:
    """Un-normalized Q(s,a) in a TabularMdp or EmpiricalModel, by the exact Bellman identity."""
    check_policy(policy, model)
    return solvers.q_table(model.mean_reward, model.transitions, policy.probs, model.discount)


_PICK_BYTES = 1 << 20  # bound on the CDF columns one categorical call gathers at once


def _cdf(probs) -> np.ndarray:
    """Cumulative sums down the first axis, the categories', with the last set
    to +inf so that a uniform past the rounded total picks the last category."""
    cum = np.ascontiguousarray(np.cumsum(probs, axis=0))  # ``take`` copies any other layout
    cum[-1] = np.inf
    return cum


def categorical(cdf: np.ndarray, dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one place that does categorical sampling: for each uniform ``u[i]``,
    the number of cumulative masses in column ``dists[i]`` of the (K, R) table
    ``cdf`` at or below it.  Columns are gathered about ``_PICK_BYTES`` at a time."""
    block = max(1, _PICK_BYTES // cdf[:, 0].nbytes)
    if len(dists) <= block:
        return (cdf.take(dists, 1) <= u).sum(0)
    starts = range(0, len(dists), block)
    return np.concatenate([categorical(cdf, dists[i : i + block], u[i : i + block]) for i in starts])


def sample_episodes(
    mdp: TabularMdp,
    policy: Policy,
    count: int,
    max_horizon: int,
    rng_seed,
) -> EpisodeSet:
    """Roll out ``count`` episodes under ``policy``, recording behavior probs.

    Episodes start from the MDP's initial distribution and stop on entering a
    terminal state or after ``max_horizon`` steps; the seed fixes them.  After
    ``rng.random(count)`` for the initial states, each step draws one
    ``rng.random((3, live))`` block of action, reward and next-state uniforms
    for all live episodes in episode order: ``count + 3 * steps`` in all.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if max_horizon < 1:
        raise ValidationError("max_horizon must be >= 1")
    check_policy(policy, mdp)
    rng, A = as_generator(rng_seed), mdp.num_actions
    values, reward_cdf, transition_cdf = mdp.outcome_tables
    policy_cdf = _cdf(policy.probs.T)
    going = np.ones(mdp.num_states, dtype=bool)
    going[list(mdp.terminal_states)] = False
    s0 = categorical(_cdf(mdp.initial_dist[:, None]), np.zeros(count, np.intp), rng.random(count))
    live = np.flatnonzero(going[s0])
    s = s0[live]
    # Time-major (episodes, s*A + a, reward index, next state) per step, after an empty record.
    steps = [(live[:0],) * 4]
    while live.size and len(steps) <= max_horizon:
        u = rng.random((3, live.size))
        sa = s * A + categorical(policy_cdf, s, u[0])
        sp = categorical(transition_cdf, sa, u[2])
        steps.append((live, sa, categorical(reward_cdf, sa, u[1]), sp))
        keep = going[sp]
        live, s = live[keep], sp[keep]
    episode, sa, k, sp = map(np.concatenate, zip(*steps))
    del steps
    order = np.argsort(episode, kind="stable")
    sa, k, sp = sa[order], k[order], sp[order]
    columns = StepColumns(
        s0=s0, s=sa // A, a=sa % A, r=values[k, sa], sp=sp,
        behavior_prob=policy.probs.reshape(-1)[sa], terminal=~going[sp],
        lengths=np.bincount(episode, minlength=count),
    )
    return EpisodeSet(columns, mdp.num_states, A)


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
    )


def perturb_policy_epsilon_greedy(policy: Policy, epsilon: float) -> Policy:
    """Mix each row with the uniform distribution over all actions."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError("epsilon must lie in [0, 1]")
    uniform = 1.0 / policy.num_actions
    return Policy((1.0 - epsilon) * policy.probs + epsilon * uniform)


def uniform_policy(num_states: int, num_actions: int) -> Policy:
    return Policy(np.full((num_states, num_actions), 1.0 / num_actions))


# An action within this of a state's best Q counts as tied with it: the held
# action is kept, and a switch goes to the lowest index.  Value iteration,
# which this replaced, stopped at a sup-change of 1e-12, so its Q was only
# good to about g/(1-g)*1e-12, 1e-9 at g = 0.999: no smaller gap was resolved.
_TIE_TOL = 1e-9


def optimal_policy(mdp: TabularMdp) -> Policy:
    """Deterministic optimal policy by policy iteration from action 0 everywhere.

    Each pass evaluates the policy by the dense solve and moves every state
    whose action is more than ``_TIE_TOL`` below its best Q to the lowest-index
    action within ``_TIE_TOL`` of that best.  A move gains, so V never falls
    and no policy repeats; there are finitely many, so the loop ends."""
    rbar, states = mdp.mean_reward, np.arange(mdp.num_states)
    actions = np.zeros(mdp.num_states, np.intp)
    while True:
        probs = np.eye(mdp.num_actions)[actions]
        q = solvers.q_table(rbar, mdp.transitions, probs, mdp.discount)
        floor = q.max(axis=1) - _TIE_TOL
        switch = q[states, actions] < floor
        if not switch.any():
            return Policy(probs)
        actions = np.where(switch, (q >= floor[:, None]).argmax(axis=1), actions)


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
    )


def make_random_policy(num_states: int, num_actions: int, rng_seed) -> Policy:
    rng = as_generator(rng_seed)
    return Policy(rng.dirichlet(np.ones(num_actions), size=num_states))
