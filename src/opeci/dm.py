"""Direct-method policy value on an empirical model.

``dm_value``, ``dm_q`` and ``empirical_on_policy_distribution`` are the
``opeci.mdp`` evaluators, which solve an empirical model as they do a true one.
``dm_bootstrap_replicas`` computes the bootstrap replicas of the DM value in
stacked batches from multinomial counts over the distinct tuples of a pool,
once the tuples at pairs the target policy never takes are merged into one
tuple per start state.  Such a pair adds an exact 0 to the value and reaches
a replica only through the start-state counts, so it is not tabled, and
merging its tuples leaves the law of every replica unchanged.
"""

from __future__ import annotations

import numpy as np

from .bootstrap import _CHUNK_BYTES, check_replicas
from .empirical import TupleDataset, _count_tables, blend_tables, build_empirical_model
from .empirical import resample_counts
from .errors import SolverError, ValidationError
from .mdp import Policy, _read_only, exact_policy_value as dm_value, q_values as dm_q
from .mdp import on_policy_distribution as empirical_on_policy_distribution
from . import solvers


def replica_chunk_size(num_states: int, width: int, num_distinct: int) -> int:
    """Replicas per stacked solve, keeping a chunk's tables near 1 MB.

    Per replica: its counts of the distinct tuples, the count tables, the blend
    and its temporaries (about four (S, w, S) tables in all), the S x S system;
    w is the number of action columns the tables keep.
    """
    S, w = num_states, width
    per_replica = 8 * (num_distinct + 4 * S * w * S + 2 * S * S + 4 * S * w + 4 * S)
    return max(1, _CHUNK_BYTES // per_replica)


def support_slots(policy_probs: np.ndarray) -> tuple:
    """(slots, slot_probs): each state's actions with pi(a|s) > 0 take slots
    0..w-1 in action order and the others slot -1; the (S, w) slot_probs pad
    a state of narrower support with 0.  With every action in the support,
    action a takes slot a and slot_probs equals policy_probs."""
    support = policy_probs > 0
    slots = np.where(support, support.cumsum(axis=1) - 1, -1)
    slot_probs = np.zeros((len(slots), slots.max() + 1))
    slot_probs[support.nonzero()[0], slots[support]] = policy_probs[support]
    return slots, slot_probs


def merge_off_support(pool: TupleDataset, slots: np.ndarray) -> TupleDataset:
    """The pool with every tuple at a pair off the support (slot -1) moved to
    the first such tuple's (s, a) with reward 0 and next state 0, so that
    ``resample_counts`` groups them into one distinct tuple per start state.
    A pool with no tuple off the support is returned as it is."""
    off = slots[pool.s, pool.a] < 0
    if not off.any():
        return pool
    first = off.argmax()
    columns = _read_only([
        np.where(off, pool.s[first], pool.s), np.where(off, pool.a[first], pool.a),
        np.where(off, 0.0, pool.r), np.where(off, 0, pool.sp),
    ])
    return TupleDataset(pool.s0, *columns, pool.num_states, pool.num_actions)


def dm_bootstrap_replicas(
    pool: TupleDataset,
    policy: Policy,
    b: int,
    rng_seed,
    *,
    kappa: float,
    discount: float,
    n: int,
) -> tuple:
    """DM point estimate on the pool plus the b recentered bootstrap replica
    differences, each replica a resample of n pool tuples.

    Replica k is the DM value, up to the order reward sums add in, of
    ``build_empirical_model(distinct, weights=row)`` for the k-th count row
    that ``resample_counts(merge_off_support(pool, slots), n, rng_seed)``
    draws: a value on the merged distinct tuples, whose law is that of a
    resample of the pool.  The point estimate is the pool's own.
    Chunks of ``replica_chunk_size`` replicas are drawn, tabled over the
    ``support_slots`` columns, blended and solved as one stack each, and
    chunking changes no replica's value.  Pairs off the support are not
    tabled, so their rewards cannot make a replica non-finite; below 8
    actions, where numpy sums an action row left to right, leaving out their
    exact-0 terms changes no bit.
    """
    if b < 2:
        raise ValidationError("b must be >= 2")
    model = build_empirical_model(pool, kappa=kappa, discount=discount)
    point = dm_value(model, policy)
    slots, slot_probs = support_slots(policy.probs)
    distinct, draw = resample_counts(merge_off_support(pool, slots), n, rng_seed)
    chunk = replica_chunk_size(model.num_states, slot_probs.shape[1], distinct.n)
    diffs = np.empty(b)
    for start in range(0, b, chunk):
        stop = min(start + chunk, b)
        tables = _count_tables(distinct, draw(stop - start), slots)
        # The default priors are the same for every action, so they fit w columns.
        mean_reward, transitions, initial_dist = blend_tables(
            *tables, float(n), model.priors, kappa
        )
        try:
            values = solvers.policy_value(
                mean_reward, transitions, initial_dist, slot_probs, discount
            )
        except SolverError as exc:
            raise SolverError(f"bootstrap replicas {start}-{stop - 1}: {exc}") from exc
        diffs[start:stop] = values - point
    check_replicas(point, diffs)
    return point, diffs
