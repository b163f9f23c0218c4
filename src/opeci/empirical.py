"""Logged-data containers and empirical model construction.

A logged tuple is (s0, s, a, r, s') where s0 is the start state of the
episode the tuple came from.  The empirical model blends observed frequencies
with prior distributions using a pseudo-mass ``kappa``: with total data mass
normalized to 1, the blended mean reward at (s, a) is

    (observed reward mass + kappa * prior_mean) / (pair mass + kappa),

and transition rows blend the same way.  ``kappa`` therefore means the same
thing at any dataset size.  With kappa=0 an unvisited pair falls back to the
priors bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mdp import EpisodeSet, _cdf, _freeze, categorical, check_discount, check_rows
from .seeding import as_generator


_COLUMNS = ("s0", "s", "a", "r", "sp")


def _check_kind(name: str, dtype: np.dtype) -> None:
    """Index columns hold integers and rewards integers or floats; nothing is coerced."""
    kinds, what = ("iuf", "integers or floats") if name == "r" else ("iu", "integers")
    if dtype.kind not in kinds:
        raise ValidationError(f"tuple column {name} holds {dtype} values, not {what}")


@dataclass(frozen=True, eq=False)
class TupleDataset:
    """Column-oriented multiset of (s0, s, a, r, s') tuples."""

    s0: np.ndarray
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    sp: np.ndarray
    num_states: int
    num_actions: int

    def __post_init__(self):
        for name in _COLUMNS:
            column = np.asarray(getattr(self, name))
            _check_kind(name, column.dtype)
            object.__setattr__(self, name, _freeze(column, np.float64 if name == "r" else np.int64))
        columns = [getattr(self, name) for name in _COLUMNS]
        if any(c.ndim != 1 for c in columns) or len({len(c) for c in columns}) > 1:
            raise ValidationError(
                "tuple columns (s0, s, a, r, sp) must be 1-d and of one length, not of shapes "
                + ", ".join(str(c.shape) for c in columns)
            )
        if self.n < 1:
            raise ValidationError("dataset must contain at least one tuple")
        if not np.isfinite(self.r).all():
            raise ValidationError("tuple rewards must be finite")
        states = (self.s0, self.s, self.sp)
        if min(c.min() for c in states) < 0 or max(c.max() for c in states) >= self.num_states:
            raise ValidationError("state index outside [0, num_states)")
        if self.a.min() < 0 or self.a.max() >= self.num_actions:
            raise ValidationError("action index outside [0, num_actions)")

    @property
    def n(self) -> int:
        return len(self.r)

    def __getitem__(self, idx) -> "TupleDataset":
        """The tuples at an index array, in its order."""
        return TupleDataset(
            self.s0[idx], self.s[idx], self.a[idx], self.r[idx], self.sp[idx],
            self.num_states, self.num_actions,
        )

    @classmethod
    def from_tuples(cls, tuples, num_states: int, num_actions: int) -> "TupleDataset":
        cols = list(zip(*tuples))
        if len(cols) != 5:
            raise ValidationError("each record must be a 5-tuple (s0, s, a, r, s')")
        # Value by value: numpy would read the column (0, True) as the integers (0, 1).
        for name, col in zip(_COLUMNS, cols):
            for value in col:
                _check_kind(name, np.asarray(value).dtype)
        return cls(*map(np.array, cols), num_states, num_actions)


@dataclass(frozen=True)
class PriorSpec:
    """Fallback reward/transition model for unvisited state-action pairs.

    The reward prior enters every downstream computation only through its
    mean, so it is stored as a mean table (scalar broadcasts); a point mass
    at 0 is the default.  The transition prior defaults to absorb-in-place
    rows: an unvisited pair keeps paying its prior reward from the same
    state forever, which with the zero reward prior contributes nothing to
    the value.  This matches what zero-initialized Q-evaluation does with
    pairs the data never updates.  (A uniform row prior would act on
    goal-seeking domains as a teleporter out of absorbing states and badly
    inflate values.)  The reward means must be finite numbers, and a given
    transition prior is kept frozen once it is an (S, A, S) table whose rows
    pass ``check_rows``.  ``resolve`` raises ValidationError when the means
    do not broadcast to the model's (S, A) or the prior has another shape.
    """

    reward_mean: float | np.ndarray = 0.0
    transition_probs: np.ndarray | None = None

    def __post_init__(self):
        try:
            finite = np.isfinite(np.asarray(self.reward_mean, dtype=np.float64)).all()
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"reward prior must hold numbers ({exc})") from None
        if not finite:  # NaN is not finite either
            raise ValidationError("reward prior must be finite")
        if self.transition_probs is not None:
            trans = check_rows(self.transition_probs, "transition prior row")
            if trans.ndim != 3:
                raise ValidationError(f"transition prior must be (S, A, S), not shape {trans.shape}")
            object.__setattr__(self, "transition_probs", trans)

    def resolve(self, num_states: int, num_actions: int) -> tuple:
        S, A = num_states, num_actions
        try:
            reward = np.broadcast_to(np.asarray(self.reward_mean, dtype=np.float64), (S, A))
        except ValueError:
            raise ValidationError(
                f"reward prior shape {np.shape(self.reward_mean)} does not broadcast to {(S, A)}"
            ) from None
        trans = self.transition_probs
        if trans is None:
            trans = np.zeros((S, A, S))
            trans[np.arange(S), :, np.arange(S)] = 1.0
        elif trans.shape != (S, A, S):
            raise ValidationError(f"transition prior shape {trans.shape} != {(S, A, S)}")
        return np.asarray(reward), trans


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Empirical MDP view of a dataset: counts plus kappa-blended tables."""

    num_states: int
    num_actions: int
    discount: float
    kappa: float
    priors: PriorSpec
    counts: np.ndarray  # (S, A) summed tuple weights per pair
    reward_sums: np.ndarray  # (S, A) weighted reward sums
    transition_counts: np.ndarray  # (S, A, S)
    total_weight: float
    mean_reward: np.ndarray  # (S, A) blended
    transitions: np.ndarray  # (S, A, S) blended rows
    initial_dist: np.ndarray  # (S,) empirical start-state frequencies

    def pair_mass(self) -> np.ndarray:
        """Empirical state-action mass d(s, a), summing to 1."""
        return self.counts / self.total_weight


def tuples_from_episodes(episodes: EpisodeSet) -> TupleDataset:
    """Flatten episodes to tuples; each tuple's s0 is its episode's start."""
    cols = episodes.columns
    if not cols.s.size:
        raise ValidationError("episode set contains no steps")
    return TupleDataset(
        np.repeat(cols.s0, cols.lengths), cols.s, cols.a, cols.r, cols.sp,
        episodes.num_states, episodes.num_actions,
    )


def build_empirical_model(
    data: TupleDataset,
    priors: PriorSpec | None = None,
    kappa: float = 0.0,
    *,
    discount: float,
    weights: np.ndarray | None = None,
) -> EmpiricalModel:
    """Aggregate a (possibly weighted) dataset into an empirical model.

    ``weights`` assigns a nonnegative mass to each tuple (default 1 each),
    which lets callers evaluate exact distribution mixtures rather than
    resampled approximations.
    """
    if not 0.0 <= kappa < math.inf:
        raise ValidationError(f"kappa must be a finite number >= 0, not {kappa!r}")
    discount = check_discount(discount)
    priors = priors or PriorSpec()
    S, A = data.num_states, data.num_actions

    if weights is None:
        w = np.ones(data.n)
    else:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != (data.n,):
            raise ValidationError(f"weights shape {w.shape} != ({data.n},)")
        if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
            raise ValidationError("weights must be finite and nonnegative with positive sum")
    total = float(w.sum())

    counts, reward_sums, transition_counts, initial_counts = (
        table[0] for table in _count_tables(data, w[None], np.broadcast_to(np.arange(A), (S, A)))
    )
    mean_reward, transitions, initial_dist = blend_tables(
        counts, reward_sums, transition_counts, initial_counts, total, priors, kappa
    )
    return EmpiricalModel(
        num_states=S,
        num_actions=A,
        discount=discount,
        kappa=float(kappa),
        priors=priors,
        counts=counts,
        reward_sums=reward_sums,
        transition_counts=transition_counts,
        total_weight=total,
        mean_reward=mean_reward,
        transitions=transitions,
        initial_dist=initial_dist,
    )


def _count_tables(tuples: TupleDataset, masses: np.ndarray, slots: np.ndarray) -> tuple:
    """Count tables of m weightings of the tuples, stacked on a leading axis.

    Returns (counts, reward_sums, transition_counts, initial_counts).
    ``masses`` is an (m, K) array of the K tuples' masses in each weighting.
    Each table is one weighted bincount over the m*K entries, so reward sums
    add mass * reward in tuple order.  ``slots``, an (S, A) map of pairs to
    columns 0..w-1 or -1 (left out), gives the pair tables w columns; slot a
    for every action a tables all A.  The initial counts take every tuple.
    """
    S = tuples.num_states
    column, width = slots[tuples.s, tuples.a], int(slots.max()) + 1
    on = column >= 0
    m, pair, pair_masses = len(masses), (tuples.s * width + column)[on], masses[:, on]
    with np.errstate(over="ignore"):  # a non-finite replica is its caller's to name
        reward_masses = pair_masses * tuples.r[on]
    tables = []
    for keys, shape, weights in (
        (pair, (S, width), pair_masses), (pair, (S, width), reward_masses),
        (pair * S + tuples.sp[on], (S, width, S), pair_masses), (tuples.s0, (S,), masses),
    ):
        size = math.prod(shape)
        table = np.bincount((np.arange(m)[:, None] * size + keys).ravel(), weights.ravel(), m * size)
        tables.append(table.reshape((m,) + shape))
    return tuple(tables)


def blend_tables(
    counts: np.ndarray,
    reward_sums: np.ndarray,
    transition_counts: np.ndarray,
    initial_counts: np.ndarray,
    total: float,
    priors: PriorSpec,
    kappa: float,
) -> tuple:
    """(mean_reward, transitions, initial_dist) blended from count tables.

    The tables may carry a leading replica axis; every replica shares
    ``total``, ``priors`` and ``kappa``.  Numerators and denominators are
    scaled by the total mass so the kappa pseudo-mass is dataset-size
    independent.
    """
    S, A = counts.shape[-2:]
    prior_reward, prior_trans = priors.resolve(S, A)
    pseudo = kappa * total
    denom = counts + pseudo
    visited = denom > 0
    safe = np.where(visited, denom, 1.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_reward = np.where(
            visited, (reward_sums + pseudo * prior_reward) / safe[..., 0], prior_reward
        )
        transitions = np.where(
            visited[..., None], (transition_counts + pseudo * prior_trans) / safe, prior_trans
        )
    return mean_reward, transitions, initial_counts / total


def augment_noisy_rewards(data: TupleDataset, noise_scale: float) -> TupleDataset:
    """The 3n tuples of the data, then of the data with rewards shifted up by
    noise_scale, then shifted down.

    The population reward variance of the result is exactly
    (2/3)*noise_scale**2 plus the data's variance.
    """
    if not 0.0 <= noise_scale < math.inf:
        raise ValidationError("noise_scale must be a finite number >= 0")
    return TupleDataset(
        np.tile(data.s0, 3),
        np.tile(data.s, 3),
        np.tile(data.a, 3),
        np.concatenate([data.r, data.r + noise_scale, data.r - noise_scale]),
        np.tile(data.sp, 3),
        data.num_states,
        data.num_actions,
    )


def sufficient_noise_scale(r_max: float, discount: float) -> float:
    """Noise scale large enough to offset bootstrap under-coverage entirely."""
    return math.sqrt(1.5) * r_max / (1.0 - check_discount(discount))


def resample_counts(pool: TupleDataset, n: int, rng_seed) -> tuple:
    """(distinct, draw): the sorted distinct tuples of the pool and ``draw(m)``,
    the next m replicas' counts.

    A uniform resample of n pool tuples is a multinomial(n, c_k / pool.n) draw
    over the distinct tuples, c_k each one's multiplicity.  Tuples are
    distinct by (s0, s, a, s') and then reward value, in that sort order, so
    rewards -0.0 and 0.0 are one tuple; each keeps its first occurrence in
    the pool.  Every ``draw`` continues one generator seeded
    (rng_seed, "multinomial").
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"resample size n must be an integer >= 1, not {n!r}")
    S, A = pool.num_states, pool.num_actions
    key = ((pool.s0 * S + pool.s) * A + pool.a) * S + pool.sp
    order = np.lexsort((pool.r, key))  # stable: a group starts at its first occurrence
    key, r = key[order], pool.r[order]
    start = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]) | (r[1:] != r[:-1])])
    counts = np.diff(start, append=pool.n)
    rng = as_generator((rng_seed, "multinomial"))
    return pool[order[start]], lambda m: rng.multinomial(n, counts / pool.n, size=m)


def sample_tuples(mdp, count: int, rng_seed) -> TupleDataset:
    """Draw tuples from the generative data model: s0 from the initial
    distribution, (s, a) uniformly, r from the reward distribution, s' from
    the transitions."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = as_generator(rng_seed)
    S, A = mdp.num_states, mdp.num_actions
    sa_probs = np.full(S * A, 1.0 / (S * A))
    one_column = np.zeros(count, np.intp)
    s0 = categorical(_cdf(mdp.initial_dist[:, None]), one_column, rng.random(count))
    sa = categorical(_cdf((sa_probs / sa_probs.sum())[:, None]), one_column, rng.random(count))
    values, reward_cdf, transition_cdf = mdp.outcome_tables
    # s0, (s, a), then reward and next-state uniforms: a shared generator advances by 4 * count.
    u = rng.random((count, 2))
    k, sp = categorical(reward_cdf, sa, u[:, 0]), categorical(transition_cdf, sa, u[:, 1])
    return TupleDataset(s0, sa // A, sa % A, values[k, sa], sp, S, A)
