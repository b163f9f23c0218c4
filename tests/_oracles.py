"""Independent oracles used to cross-check the package's vectorized paths.

The sampling oracles deliberately avoid the package's solver code: they
simulate the MDP forward with vectorized numpy and report Monte-Carlo means
with standard errors, so solver bugs cannot hide in both sides of a
comparison.  The recursion oracles compute PDIS and DR one logged step
object at a time, against the flat-column sweep in ``opeci.baselines``.
``episode_set`` flattens step objects to columns field by field, the
reference that ``EpisodeSet.episodes`` is checked against.
``loop_replicas`` is the per-replica reference for the batched DM bootstrap,
and ``with_terminals`` marks states of a test MDP as absorbing terminals.
"""

import dataclasses

import numpy as np

from opeci import build_empirical_model, dm_value
from opeci.empirical import resample_counts
from opeci.mdp import EpisodeSet, StepColumns


def loop_replicas(data, policy, b, seed, kappa, discount):
    """The per-replica reference: draw all b count rows in one block, then
    build each replica's model from its row as tuple weights, and solve."""

    def value(d, weights=None):
        model = build_empirical_model(d, kappa=kappa, discount=discount, weights=weights)
        return dm_value(model, policy)

    distinct, draw = resample_counts(data, seed)
    point = value(data)
    return point, np.array([value(distinct, row) - point for row in draw(b)])


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
