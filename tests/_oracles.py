"""Independent oracles used to cross-check the package's vectorized paths.

The sampling oracles deliberately avoid the package's solver code: they
simulate the MDP forward with vectorized numpy and report Monte-Carlo means
with standard errors, so solver bugs cannot hide in both sides of a
comparison.  The recursion oracles compute PDIS and DR one logged step
object at a time, against the flat-column sweep in ``opeci.baselines``.
``episode_set`` flattens step objects to columns field by field, the
reference that ``EpisodeSet.episodes`` is checked against.
``save_episodes_reference`` writes an episode file with one ``json.dumps``
per line, the bytes that ``io.save_episodes`` must reproduce, and
``save_mdp`` and ``save_policy`` write the MDP and policy files that tests
feed to the loaders and the CLI.
``lockstep_episodes`` draws the sampler's uniforms in its order and picks
each category with ``bisect_right``, one step object at a time.
``loop_replicas`` is the per-replica reference for the batched DM bootstrap,
``full_table_replicas`` the bit-exact one that tables every action instead of
the target's support, ``unique_resample_counts`` groups a pool's distinct
tuples with three ``np.unique`` calls, the reference for ``resample_counts``,
and ``bootstrap_chunk`` and ``chunks_tabled`` give the chunk a DM bootstrap
uses and the chunks it tables.  ``loop_mean_replicas`` is the reference for
the blocked mean bootstrap of a value array, and ``with_terminals`` marks
states of a test MDP as absorbing terminals.
``qe_fixed_point`` (Q-evaluation) and ``value_iteration_policy`` iterate
contractions, the references for the dense solve and ``optimal_policy``.
``influence_per_tuple`` builds one tuple's dense perturbation tables and sums
them, the reference for the closed form in ``sensitivity.influence``, and
``sparse_case_data`` draws a random model whose data leave half the (s, a)
pairs unvisited, in ``sensitivity._random_case_data``'s draw order.
``exact_bandit_coverage`` is the b=inf coverage of the basic DM interval on
a Bernoulli bandit at discount 0, a finite sum over binomial outcomes.
"""

import dataclasses
import json
import math
from bisect import bisect_right
from itertools import accumulate, chain, islice
from unittest import mock

import numpy as np
from scipy.stats import binom

from opeci import (
    Policy, SolverError, UnvisitedPairError, ValidationError, build_empirical_model, dm_value,
    solvers,
)
from opeci import dm
from opeci.dm import dm_q, empirical_on_policy_distribution
from opeci.empirical import (
    EmpiricalModel, _count_tables, blend_tables, resample_counts, sample_tuples,
)
from opeci.io import write_lines, write_text
from opeci.mdp import (
    Episode, EpisodeSet, Step, StepColumns, check_policy, make_random_mdp, make_random_policy,
)
from opeci.seeding import as_generator
from opeci.sensitivity import InfluenceBreakdown


def loop_replicas(pool, n, policy, b, seed, kappa, discount):
    """The per-replica reference: draw all b count rows of n pool tuples in one
    block, then build each replica's model from its row as tuple weights, and solve."""

    def value(d, weights=None):
        model = build_empirical_model(d, kappa=kappa, discount=discount, weights=weights)
        return dm_value(model, policy)

    distinct, draw = resample_counts(pool, n, seed)
    point = value(pool)
    return point, np.array([value(distinct, row) - point for row in draw(b)])


def full_table_replicas(pool, n, policy, b, seed, kappa, discount):
    """The DM replicas from full (S, A) tables: the b count rows in one stack
    through ``_count_tables``, ``blend_tables`` and ``solvers.policy_value``
    with the policy's own rows, as the bootstrap tabled every action."""
    model = build_empirical_model(pool, kappa=kappa, discount=discount)
    point = dm_value(model, policy)
    distinct, draw = resample_counts(pool, n, seed)
    S, A = pool.num_states, pool.num_actions
    every_action = np.broadcast_to(np.arange(A), (S, A))
    tables = _count_tables(distinct, draw(b), every_action)
    blended = blend_tables(*tables, float(n), model.priors, kappa)
    return point, solvers.policy_value(*blended, policy.probs, discount) - point


def unique_resample_counts(pool, n, rng_seed):
    """``resample_counts`` with the distinct tuples grouped by three ``np.unique``
    calls: (s0, s, a, s') codes, reward ranks, then the pairs of the two."""
    S, A = pool.num_states, pool.num_actions
    _, code = np.unique(((pool.s0 * S + pool.s) * A + pool.a) * S + pool.sp, return_inverse=True)
    _, reward = np.unique(pool.r, return_inverse=True)
    _, first, counts = np.unique(code * pool.n + reward, return_index=True, return_counts=True)
    rng = as_generator((rng_seed, "multinomial"))
    return pool[first], lambda m: rng.multinomial(n, counts / pool.n, size=m)


def bootstrap_chunk(pool, n, policy, seed):
    """The replicas per chunk of ``dm_bootstrap_replicas`` on this pool and target."""
    distinct, _ = resample_counts(pool, n, seed)
    width = dm.support_slots(policy.probs)[1].shape[1]
    return dm.replica_chunk_size(pool.num_states, width, distinct.n)


def chunks_tabled(pool, policy, b, seed, **kwargs):
    """``dm_bootstrap_replicas`` and the number of chunks it tabled."""
    with mock.patch.object(dm, "_count_tables", wraps=dm._count_tables) as tables:
        result = dm.dm_bootstrap_replicas(pool, policy, b, seed, **kwargs)
    return result, tables.call_count


def loop_mean_replicas(values, b, seed):
    """The per-replica reference for ``bootstrap_replicas``: draw all b index
    rows in one (b, n) block, then take ``np.mean`` of each row's values."""
    point = float(np.mean(values))
    draws = as_generator((seed, "indices")).integers(0, len(values), size=(b, len(values)))
    with np.errstate(over="ignore"):
        return point, np.array([float(np.mean(values[idx])) - point for idx in draws])


def logged_tuples(data):
    """Each (s0, s, a, r, s') of a TupleDataset as a tuple of Python numbers."""
    return list(zip(*(col.tolist() for col in (data.s0, data.s, data.a, data.r, data.sp))))


def with_terminals(mdp, states):
    """``mdp`` with ``states`` made absorbing and terminal.  Sampling never
    steps out of a terminal state, so the rows replaced here draw nothing."""
    transitions = np.array(mdp.transitions)
    for s in states:
        transitions[s] = 0.0
        transitions[s, :, s] = 1.0
    return dataclasses.replace(mdp, transitions=transitions, terminal_states=frozenset(states))


def episode_set(episodes, num_states, num_actions):
    """EpisodeSet of ``Episode``s of ``Step``s, flattened one field at a time."""
    steps = [step for ep in episodes for step in ep.steps]
    return EpisodeSet(
        StepColumns(
            s0=np.array([ep.initial_state for ep in episodes], dtype=np.int64),
            s=np.array([step.state for step in steps], dtype=np.int64),
            a=np.array([step.action for step in steps], dtype=np.int64),
            r=np.array([step.reward for step in steps], dtype=np.float64),
            sp=np.array([step.next_state for step in steps], dtype=np.int64),
            behavior_prob=np.array([step.behavior_prob for step in steps], dtype=np.float64),
            terminal=np.array([step.terminal for step in steps], dtype=bool),
            lengths=np.array([len(ep.steps) for ep in episodes], dtype=np.int64),
        ),
        num_states,
        num_actions,
    )


def save_episodes_reference(episodes, path, discount=None):
    """The episode file of ``episodes``, each line rendered whole by json."""
    header = {
        "meta": {
            "num_states": episodes.num_states,
            "num_actions": episodes.num_actions,
            "discount": discount,
        }
    }
    cols = episodes.columns
    steps = zip(*(col.tolist() for col in cols[1:6]), cols.terminal.astype(np.int64).tolist())
    lines = (
        json.dumps({"initial_state": s0, "steps": list(islice(steps, length))})
        for s0, length in zip(cols.s0.tolist(), cols.lengths.tolist())
    )
    write_lines(path, "episodes", chain([json.dumps(header)], lines))


def save_mdp(mdp, path):
    """The MDP spec file of ``mdp``, every field written out, for ``io.load_mdp``."""
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "transitions": mdp.transitions.tolist(),
        "rewards": [
            [[[v, p] for v, p in mdp.rewards[s][a]] for a in range(mdp.num_actions)]
            for s in range(mdp.num_states)
        ],
        "initial_dist": mdp.initial_dist.tolist(),
        "discount": mdp.discount,
        "terminal_states": sorted(mdp.terminal_states),
        "r_max": mdp.r_max,
    }
    write_text(path, "MDP spec", json.dumps(doc))


def save_policy(policy, path):
    """The policy file of ``policy``, for ``io.load_policy``."""
    write_text(path, "policy", json.dumps({"probs": policy.probs.tolist()}))


def _bisect_pick(probs, u):
    """Category of uniform ``u``: how many cumulative sums but the last lie at
    or below it, so a ``u`` past the rounded total picks the last category."""
    return bisect_right(list(accumulate(probs))[:-1], u)


def lockstep_episodes(mdp, policy, count, max_horizon, seed):
    """The reference for ``sample_episodes``: ``count`` uniforms for the
    initial states, then per step one (3, live) block of action, reward and
    next-state uniforms for the live episodes in episode order."""
    rng, terminal = as_generator(seed), mdp.terminal_states
    s0 = [_bisect_pick(mdp.initial_dist, u) for u in rng.random(count)]
    state, steps = list(s0), [[] for _ in s0]
    live = [e for e in range(count) if s0[e] not in terminal]
    for _ in range(max_horizon):
        if not live:
            break
        for e, (ua, ur, us) in zip(live, rng.random((3, len(live))).T):
            s = state[e]
            a = _bisect_pick(policy.probs[s], ua)
            support = mdp.rewards[s][a]
            reward = support[_bisect_pick([p for _, p in support], ur)][0]
            state[e] = _bisect_pick(mdp.transitions[s, a], us)
            steps[e].append(Step(s, a, reward, state[e], policy.probs[s, a], state[e] in terminal))
        live = [e for e in live if state[e] not in terminal]
    episodes = [Episode(s, tuple(taken)) for s, taken in zip(s0, steps)]
    return episode_set(episodes, mdp.num_states, mdp.num_actions)


def _row_sample(rng, cumulative_rows):
    """One categorical draw per row of a (N, K) cumulative-probability array."""
    u = rng.random(cumulative_rows.shape[0])
    return (u[:, None] > cumulative_rows).sum(axis=1)


def _padded_reward_tables(mdp):
    max_support = max(
        len(mdp.rewards[s][a]) for s in range(mdp.num_states) for a in range(mdp.num_actions)
    )
    values = np.zeros((mdp.num_states, mdp.num_actions, max_support))
    cums = np.ones((mdp.num_states, mdp.num_actions, max_support))
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            support = mdp.rewards[s][a]
            acc = 0.0
            for k, (v, p) in enumerate(support):
                acc += p
                values[s, a, k] = v
                cums[s, a, k] = acc
            values[s, a, len(support):] = support[-1][0]
    return values, cums


def mc_rollouts(mdp, policy, n_episodes, horizon, seed):
    """Simulate n_episodes for `horizon` steps (no terminal short-circuit;
    absorbing states simply keep looping, which matches the exact value).

    Returns (per-episode normalized returns, per-episode (s,a) visitation
    weights of shape (n, S*A) in the normalized discounted convention).
    """
    rng = np.random.default_rng(seed)
    S, A = mdp.num_states, mdp.num_actions
    policy_cum = np.cumsum(policy.probs, axis=1)
    trans_cum = np.cumsum(mdp.transitions, axis=2)
    reward_values, reward_cums = _padded_reward_tables(mdp)
    init_cum = np.cumsum(mdp.initial_dist)

    states = (rng.random(n_episodes)[:, None] > init_cum[None, :]).sum(axis=1)
    returns = np.zeros(n_episodes)
    visits = np.zeros((n_episodes, S * A))
    gamma = mdp.discount
    weight = 1.0
    for _ in range(horizon):
        actions = _row_sample(rng, policy_cum[states])
        rewards_idx = _row_sample(rng, reward_cums[states, actions])
        rewards = reward_values[states, actions, rewards_idx]
        next_states = _row_sample(rng, trans_cum[states, actions])
        returns += weight * rewards
        np.add.at(visits, (np.arange(n_episodes), states * A + actions), (1.0 - gamma) * weight)
        states = next_states
        weight *= gamma
    return (1.0 - gamma) * returns, visits


def mc_value(mdp, policy, n_episodes, horizon, seed):
    """(estimate, standard error) of the normalized policy value."""
    returns, _ = mc_rollouts(mdp, policy, n_episodes, horizon, seed)
    return float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(n_episodes))


def mc_visitation(mdp, policy, n_episodes, horizon, seed):
    """(estimate, standard error) arrays of shape (S, A) for the discounted
    on-policy distribution."""
    _, visits = mc_rollouts(mdp, policy, n_episodes, horizon, seed)
    S, A = mdp.num_states, mdp.num_actions
    mean = visits.mean(axis=0).reshape(S, A)
    se = (visits.std(axis=0, ddof=1) / np.sqrt(n_episodes)).reshape(S, A)
    return mean, se


def normalized_return(episode, discount):
    """(1-discount)-normalized discounted return of one episode."""
    total = 0.0
    weight = 1.0
    for step in episode.steps:
        total += weight * step.reward
        weight *= discount
    return (1.0 - discount) * total


def recursive_estimate(episode, target, discount, q=None, v=None):
    """Scalar per-episode PDIS (q = v = None) or DR value by the backward
    recursion  acc = V(s) + ratio * (r + discount*acc - Q(s, a)),  one step
    object at a time."""
    acc = 0.0
    for step in reversed(episode.steps):
        ratio = target.probs[step.state, step.action] / step.behavior_prob
        baseline = 0.0 if v is None else v[step.state]
        control = 0.0 if q is None else q[step.state, step.action]
        acc = baseline + ratio * (step.reward + discount * acc - control)
    return (1.0 - discount) * acc


def range_bounds(episodes, target, discount, q, v):
    """(PDIS bound, DR bound) from a scalar scan of the largest step ratio,
    largest |reward| and longest episode."""
    rho_max, r_max, t_max = 0.0, 0.0, 0
    for ep in episodes.episodes:
        t_max = max(t_max, len(ep.steps))
        for step in ep.steps:
            rho_max = max(rho_max, target.probs[step.state, step.action] / step.behavior_prob)
            r_max = max(r_max, abs(step.reward))
    pdis = 0.0
    if t_max and rho_max and r_max:
        t = np.arange(t_max)
        pdis = float((1.0 - discount) * ((discount**t) * rho_max ** (t + 1)).sum() * r_max)
    dr = 0.0
    v_max, q_max = float(np.abs(v).max()), float(np.abs(q).max())
    for _ in range(t_max):
        dr = v_max + rho_max * (r_max + discount * dr + q_max)
    return pdis, (1.0 - discount) * dr


def _contraction_iteration_cap(discount, tol, reward_scale):
    if discount == 0.0:
        return 2
    scale = max(reward_scale, 1.0) / (1.0 - discount)
    return int(math.ceil(math.log(max(tol, 1e-300) / (2.0 * scale)) / math.log(discount))) + 2


def fixed_point(backup, start, tol, max_iters, what):
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


def qe_fixed_point(model, policy, tolerance=1e-12):
    """(q_table, backups): iterate the tabular backup until one moves Q by at
    most ``tolerance``, from the policy's Q under the pure-prior model, so
    unvisited pairs keep their prior meaning whatever the start."""
    if tolerance <= 0:
        raise ValidationError("tolerance must be > 0")
    check_policy(policy, model)
    S, A = model.num_states, model.num_actions
    rbar = model.mean_reward.reshape(S * A)
    flat_t = model.transitions.reshape(S * A, S)
    gamma = model.discount
    prior_reward, prior_trans = model.priors.resolve(S, A)
    q = solvers.q_table(prior_reward, prior_trans, policy.probs, gamma).reshape(S * A)
    max_iters = max(1000, _contraction_iteration_cap(gamma, tolerance, float(np.abs(rbar).max())))

    def backup(q):
        return rbar + gamma * (flat_t @ (policy.probs * q.reshape(S, A)).sum(axis=1))

    q, iterations = fixed_point(backup, q, tolerance, max_iters, "Q-evaluation")
    return q.reshape(S, A), iterations


def dm_value_via_qe(model, policy, tolerance=1e-12):
    """Direct-method value via Q-evaluation instead of a linear solve."""
    q, _ = qe_fixed_point(model, policy, tolerance)
    p0 = (model.initial_dist[:, None] * policy.probs).reshape(-1)
    return float((1.0 - model.discount) * (p0 @ q.reshape(-1)))


def value_iteration_policy(mdp, tol=1e-12):
    """Deterministic greedy policy from value iteration (ties: lowest index)."""
    rbar = mdp.mean_reward
    flat_t = mdp.transitions.reshape(-1, mdp.num_states)
    gamma = mdp.discount
    cap = _contraction_iteration_cap(gamma, tol, float(np.abs(rbar).max()))
    q, _ = fixed_point(
        lambda q: rbar + gamma * (flat_t @ q.max(axis=1)).reshape(q.shape),
        np.zeros((mdp.num_states, mdp.num_actions)), tol, cap, "value iteration",
    )
    probs = np.zeros_like(q)
    probs[np.arange(mdp.num_states), q.argmax(axis=1)] = 1.0
    return Policy(probs)


def influence_per_tuple(model: EmpiricalModel, policy: Policy, tup) -> InfluenceBreakdown:
    """Closed-form influence of one tuple on the DM value.

    Requires positive blended mass at the probed pair: either kappa > 0 or
    the pair is visited.  With kappa > 0 the mixture also rescales every
    other pair's blend toward its prior, and those global terms are included.
    """
    s0x, sx, ax, rx, spx = (int(tup[0]), int(tup[1]), int(tup[2]), float(tup[3]), int(tup[4]))
    gamma = model.discount
    kappa = model.kappa
    d = model.pair_mass()
    if kappa == 0.0 and d[sx, ax] == 0.0:
        raise UnvisitedPairError(
            f"pair (s={sx}, a={ax}) is unvisited and kappa=0: derivative diverges"
        )

    dpi = empirical_on_policy_distribution(model, policy)
    q = dm_q(model, policy)
    v = solvers.state_values(q, policy.probs)
    p0 = (model.initial_dist[:, None] * policy.probs).reshape(-1)
    rho = float((1.0 - gamma) * (p0 @ q.reshape(-1)))

    m1 = model.reward_sums / model.total_weight
    mt = model.transition_counts / model.total_weight
    denom = d + kappa

    d_dot = -d.copy()
    d_dot[sx, ax] += 1.0
    m1_dot = -m1
    m1_dot[sx, ax] += rx
    mt_dot = -mt
    mt_dot[sx, ax, spx] += 1.0

    with np.errstate(divide="ignore", invalid="ignore"):
        r_dot = np.where(
            denom > 0,
            (m1_dot - model.mean_reward * d_dot) / np.where(denom > 0, denom, 1.0),
            0.0,
        )
        t_dot = np.where(
            denom[:, :, None] > 0,
            (mt_dot - model.transitions * d_dot[:, :, None])
            / np.where(denom[:, :, None] > 0, denom[:, :, None], 1.0),
            0.0,
        )

    reward_term = float((dpi * r_dot).sum())
    next_state_term = float(gamma * (dpi[:, :, None] * v[None, None, :] * t_dot).sum())
    initial_state_term = float((1.0 - gamma) * v[s0x] - rho)
    total = reward_term + initial_state_term + next_state_term
    ratio = float(dpi[sx, ax] / d[sx, ax]) if d[sx, ax] > 0 else float("inf")
    return InfluenceBreakdown(
        reward_term=reward_term,
        initial_state_term=initial_state_term,
        next_state_term=next_state_term,
        total=total,
        weight_ratio=ratio,
    )


def sparse_case_data(rng, num_states, num_actions):
    """(mdp, policy, data, discount) drawn from ``rng`` as
    ``sensitivity._random_case_data`` draws them, with the data restricted to
    tuples whose pair index s * num_actions + a falls in the lower half, so
    the upper half of the pairs stays unvisited (all tuples stay if none
    falls there)."""
    gamma = float(rng.uniform(0.3, 0.9))
    mdp = make_random_mdp(num_states, num_actions, gamma, rng)
    policy = make_random_policy(num_states, num_actions, rng)
    extra = sample_tuples(mdp, 10 * num_states * num_actions, rng)
    keep = extra.s * num_actions + extra.a < (num_states * num_actions) // 2
    if not keep.any():
        keep[:] = True
    return mdp, policy, extra[keep], gamma


def exact_bandit_coverage(p, n, alpha, side=None):
    """The b=inf coverage of the basic 1 - alpha DM interval on n one-step
    episodes of a Bernoulli(p) bandit at discount 0: a sum over the
    k ~ Binomial(n, p) successes of the data.  With ``side`` "lower" or
    "upper", the coverage of that endpoint alone, the one-sided 1 - alpha/2
    bound.

    The DM value is then the sample mean k/n and a replica is
    Binomial(n, k/n)/n, so at b=inf the replica quantiles are binomial
    quantiles on the 1/n lattice.  The endpoints are formed in the float
    operations of ``interval_from_replicas``, so a truth on the lattice is
    covered or not as that arithmetic decides.
    """
    k = np.arange(n + 1)
    point = k / n
    low_diff = binom.ppf(alpha / 2, n, point) / n - point
    high_diff = binom.ppf(1 - alpha / 2, n, point) / n - point
    below, above = point - high_diff <= p, p <= point - low_diff
    covered = {None: below & above, "lower": below, "upper": above}[side]
    return float(binom.pmf(k, n, p)[covered].sum())
