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
from .mdp import CategoricalDraws, EpisodeSet, check_discount
from .seeding import as_generator

_CHUNK_BYTES = 1 << 20  # working memory of one block of bootstrap replicas


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
        for name in ("s0", "s", "a", "sp"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        r = np.ascontiguousarray(self.r, dtype=np.float64)
        r.setflags(write=False)
        object.__setattr__(self, "r", r)
        if self.n < 1:
            raise ValidationError("dataset must contain at least one tuple")
        if not np.isfinite(r).all():
            raise ValidationError("tuple rewards must be finite")
        if (
            self.s0.min() < 0
            or self.s0.max() >= self.num_states
            or self.s.min() < 0
            or self.s.max() >= self.num_states
            or self.sp.min() < 0
            or self.sp.max() >= self.num_states
        ):
            raise ValidationError("state index outside [0, num_states)")
        if self.a.min() < 0 or self.a.max() >= self.num_actions:
            raise ValidationError("action index outside [0, num_actions)")

    @property
    def n(self) -> int:
        return len(self.r)

    def __len__(self) -> int:
        return self.n

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
        s0, s, a, r, sp = cols
        return cls(
            np.array(s0), np.array(s), np.array(a), np.array(r, dtype=np.float64),
            np.array(sp), num_states, num_actions,
        )

    def tuple_at(self, i: int) -> tuple:
        return (
            int(self.s0[i]), int(self.s[i]), int(self.a[i]), float(self.r[i]), int(self.sp[i]),
        )


@dataclass(frozen=True, eq=False)
class AugmentedDataset:
    """A dataset tripled with +/- noise_scale reward perturbations.

    ``view`` materializes the 3n tuples (original block, +noise block,
    -noise block).  Never persisted; always derived from its base.
    """

    base: TupleDataset
    noise_scale: float
    view: TupleDataset

    @property
    def n(self) -> int:
        return self.base.n


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
    inflate values.)
    """

    reward_mean: float | np.ndarray = 0.0
    transition_probs: np.ndarray | None = None

    def __post_init__(self):
        # Written so that NaN fails every test.
        if not np.isfinite(np.asarray(self.reward_mean, dtype=np.float64)).all():
            raise ValidationError("reward prior must be finite")
        if self.transition_probs is not None:
            trans = np.asarray(self.transition_probs, dtype=np.float64)
            if not (
                trans.ndim == 3
                and (trans >= 0.0).all()
                and (np.abs(trans.sum(axis=2) - 1.0) <= 1e-12).all()
            ):
                raise ValidationError(
                    "transition prior must be an (S, A, S) table of finite, non-negative "
                    "rows summing to 1"
                )

    def resolve(self, num_states: int, num_actions: int) -> tuple:
        reward = np.broadcast_to(
            np.asarray(self.reward_mean, dtype=np.float64), (num_states, num_actions)
        )
        if self.transition_probs is None:
            trans = np.zeros((num_states, num_actions, num_states))
            trans[np.arange(num_states), :, np.arange(num_states)] = 1.0
        else:
            trans = np.asarray(self.transition_probs, dtype=np.float64)
            if trans.shape != (num_states, num_actions, num_states):
                raise ValidationError(
                    f"transition prior shape {trans.shape} != {(num_states, num_actions, num_states)}"
                )
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
    initial_counts: np.ndarray  # (S,)
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


def _materialized(data) -> TupleDataset:
    return data.view if isinstance(data, AugmentedDataset) else data


def build_empirical_model(
    data,
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
    data = _materialized(data)
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
        table[0] for table in _count_tables(data, w[None])
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
        initial_counts=initial_counts,
        total_weight=total,
        mean_reward=mean_reward,
        transitions=transitions,
        initial_dist=initial_dist,
    )


def _count_tables(tuples: TupleDataset, masses: np.ndarray) -> tuple:
    """Count tables of m weightings of the tuples, stacked on a leading axis.

    Returns (counts, reward_sums, transition_counts, initial_counts).
    ``masses`` is an (m, K) array of the K tuples' masses in each weighting.
    Each table is one weighted bincount over the m*K entries, so reward sums
    add mass * reward in tuple order.
    """
    S, A = tuples.num_states, tuples.num_actions
    m, sa = len(masses), tuples.s * A + tuples.a
    with np.errstate(over="ignore"):  # a non-finite replica is its caller's to name
        reward_masses = masses * tuples.r
    tables = []
    for keys, shape, weights in (
        (sa, (S, A), masses), (sa, (S, A), reward_masses),
        (sa * S + tuples.sp, (S, A, S), masses), (tuples.s0, (S,), masses),
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


def augment_noisy_rewards(data: TupleDataset, noise_scale: float) -> AugmentedDataset:
    """Triple the dataset with rewards shifted by +/- noise_scale.

    The population reward variance of the result is exactly
    (2/3)*noise_scale**2 plus the base variance.
    """
    if noise_scale < 0:
        raise ValidationError("noise_scale must be >= 0")
    view = TupleDataset(
        np.tile(data.s0, 3),
        np.tile(data.s, 3),
        np.tile(data.a, 3),
        np.concatenate([data.r, data.r + noise_scale, data.r - noise_scale]),
        np.tile(data.sp, 3),
        data.num_states,
        data.num_actions,
    )
    return AugmentedDataset(base=data, noise_scale=float(noise_scale), view=view)


def sufficient_noise_scale(r_max: float, discount: float) -> float:
    """Noise scale large enough to offset bootstrap under-coverage entirely."""
    return math.sqrt(1.5) * r_max / (1.0 - check_discount(discount))


def resample_indices(data, rng_seed, b: int) -> tuple:
    """(pool, draws): the pool to index and, for each of b bootstrap replicas,
    the indices of a uniform with-replacement resample of n items.

    ``data`` is a value array, a TupleDataset or an AugmentedDataset (whose
    pool is its 3n view; n stays the base size).  Draws come in (rows, n)
    blocks of about 1 MB from one generator seeded (rng_seed, "indices").
    """
    pool = _materialized(data)
    if not isinstance(pool, (np.ndarray, TupleDataset)):
        raise ValidationError(f"cannot resample a {type(data).__name__}")
    n = data.n if isinstance(data, AugmentedDataset) else len(pool)
    if n < 1:
        raise ValidationError("cannot resample an empty dataset")
    rng, rows = as_generator((rng_seed, "indices")), max(1, _CHUNK_BYTES // (8 * n))
    blocks = (rng.integers(0, len(pool), size=(min(rows, b - start), n)) for start in range(0, b, rows))
    return pool, (idx for block in blocks for idx in block)


def resample_counts(data, rng_seed) -> tuple:
    """(distinct, draw): the sorted distinct tuples of the pool that
    ``resample_indices`` indexes, and ``draw(m)``, the next m replicas' counts.

    A uniform resample of n pool tuples is a multinomial(n, c_k / len(pool))
    draw over the distinct tuples, c_k each one's multiplicity.  Every
    ``draw`` continues one generator seeded (rng_seed, "multinomial").
    """
    pool = _materialized(data)
    S, A = pool.num_states, pool.num_actions
    _, code = np.unique(((pool.s0 * S + pool.s) * A + pool.a) * S + pool.sp, return_inverse=True)
    _, reward = np.unique(pool.r, return_inverse=True)
    _, first, counts = np.unique(code * pool.n + reward, return_index=True, return_counts=True)
    rng = as_generator((rng_seed, "multinomial"))
    return pool[first], lambda m: rng.multinomial(data.n, counts / pool.n, size=m)


def sample_tuples(mdp, count: int, rng_seed, state_action_dist: np.ndarray | None = None) -> TupleDataset:
    """Draw tuples from the generative data model: s0 from the initial
    distribution, (s, a) from ``state_action_dist`` (uniform by default),
    r from the reward distribution, s' from the transitions."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = as_generator(rng_seed)
    S, A = mdp.num_states, mdp.num_actions
    if state_action_dist is None:
        sa_probs = np.full(S * A, 1.0 / (S * A))
    else:
        sa_probs = np.asarray(state_action_dist, dtype=np.float64).reshape(S * A)
    s0 = rng.choice(S, size=count, p=mdp.initial_dist)
    sa = rng.choice(S * A, size=count, p=sa_probs / sa_probs.sum())
    s, a = sa // A, sa % A
    # One block of exactly two uniforms per tuple: a shared generator advances by 2 * count.
    draws = CategoricalDraws(mdp, rng, block=2 * count)
    r, sp = zip(*map(draws.outcome, s.tolist(), a.tolist()))
    return TupleDataset(s0, s, a, np.array(r, dtype=np.float64), np.array(sp), S, A)
