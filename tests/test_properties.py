"""Property tests: invariants checked on generated inputs.

Every property runs derandomized, with no example database and at most 50
examples, so the suite stays deterministic and fast.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from opeci import (
    PriorSpec, TabularMdp, ValidationError, build_empirical_model, dm_value, dr_estimate,
    exact_policy_value, per_decision_is, sample_episodes, solvers,
)
from opeci import dm, mdp as mdp_module
from opeci.empirical import TupleDataset, augment_noisy_rewards, sample_tuples
from opeci.io import load_episodes, load_mdp, load_policy, save_episodes
from opeci.mdp import Episode, Policy, Step, make_random_mdp, make_random_policy, optimal_policy, q_values

from _oracles import (
    bootstrap_chunk, chunks_tabled, episode_set, lockstep_episodes, loop_replicas, range_bounds,
    recursive_estimate, save_episodes_reference, with_terminals,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(
    num_states=st.integers(1, 6),
    columns=st.lists(st.integers(0, 2), min_size=4, max_size=6),  # action a copies columns[a]
    discount=st.sampled_from([0.0, 0.5, 0.9, 0.999]),
    seed=seeds,
)
def test_optimal_policy_is_greedy_and_breaks_ties_to_the_lowest_index(num_states, columns, discount, seed):
    base = make_random_mdp(num_states, 3, discount, (seed, "mdp"))
    rewards = [[row[c] for c in columns] for row in base.rewards]
    mdp = TabularMdp(num_states, len(columns), base.transitions[:, columns], rewards, base.initial_dist, discount)
    policy = optimal_policy(mdp)
    chosen, q = policy.probs.argmax(axis=1), q_values(mdp, policy)
    assert (q[np.arange(num_states), chosen] >= q.max(axis=1) - mdp_module._TIE_TOL).all()
    assert chosen.tolist() == [columns.index(columns[a]) for a in chosen]  # four copies of three tie


@PROPERTY
@given(
    num_states=st.integers(1, 6),
    num_actions=st.integers(1, 3),
    n=st.integers(1, 80),
    discount=st.floats(0.0, 0.99),
    kappa=st.sampled_from([0.0, 0.05, 1.0]),
    seed=seeds,
)
def test_dm_value_ignores_tuple_order(num_states, num_actions, n, discount, kappa, seed):
    mdp = make_random_mdp(num_states, num_actions, discount, (seed, "mdp"))
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    data = sample_tuples(mdp, n, (seed, "tuples"))
    order = np.random.default_rng(seed).permutation(n)
    shuffled = TupleDataset(
        data.s0[order], data.s[order], data.a[order], data.r[order], data.sp[order],
        num_states, num_actions,
    )
    values = [
        dm_value(build_empirical_model(d, kappa=kappa, discount=discount), policy)
        for d in (data, shuffled)
    ]
    assert abs(values[0] - values[1]) <= 1e-12


@PROPERTY
@given(
    num_states=st.integers(1, 5),
    num_actions=st.integers(1, 3),
    n=st.integers(1, 60),
    discount=st.floats(0.0, 0.999),
    kappa=st.sampled_from([0.0, 0.05]),
    noisy=st.booleans(),
    chunk_bytes=st.integers(0, 4000),
    extra=st.integers(1, 40),
    zeroed=st.booleans(),
    seed=seeds,
)
def test_batched_dm_bootstrap_equals_per_replica_loop(
    num_states, num_actions, n, discount, kappa, noisy, chunk_bytes, extra, zeroed, seed
):
    mdp = make_random_mdp(num_states, num_actions, discount, (seed, "mdp"))
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    if zeroed:
        # each action off the support with probability 1/2, each state keeping one
        rng = np.random.default_rng(seed)
        keep = rng.random((num_states, num_actions)) < 0.5
        keep[np.arange(num_states), rng.integers(num_actions, size=num_states)] = True
        policy = Policy(policy.probs * keep / (policy.probs * keep).sum(axis=1, keepdims=True))
    pool = sample_tuples(mdp, n, (seed, "tuples"))
    if noisy:
        pool = augment_noisy_rewards(pool, 0.25 * float(np.std(pool.r)))
    # A small chunk budget makes b span more than one chunk.
    with mock.patch.object(dm, "_CHUNK_BYTES", chunk_bytes):
        b = bootstrap_chunk(pool, n, policy, (seed, "boot")) + extra
        (point, diffs), chunks = chunks_tabled(
            pool, policy, b, (seed, "boot"), kappa=kappa, discount=discount, n=n
        )
    assert chunks >= 2
    ref_point, ref_diffs = loop_replicas(pool, n, policy, b, (seed, "boot"), kappa, discount)
    assert point == ref_point
    assert np.abs(diffs - ref_diffs).max() <= 1e-12


@PROPERTY
@given(
    num_states=st.integers(1, 5),
    num_actions=st.integers(1, 3),
    count=st.integers(0, 12),
    horizon=st.integers(1, 15),
    terminal=st.sets(st.integers(0, 4), max_size=3),
    discount=st.one_of(st.none(), st.floats(0.0, 0.999)),
    seed=seeds,
)
def test_episode_file_round_trip_keeps_columns(
    num_states, num_actions, count, horizon, terminal, discount, seed
):
    # Terminal states give ragged, empty and terminal-flagged episodes.
    mdp = with_terminals(
        make_random_mdp(num_states, num_actions, 0.9, (seed, "mdp")),
        {s for s in terminal if s < num_states},
    )
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    # sample_episodes rejects count 0; a header-only file still round-trips.
    episodes = (
        sample_episodes(mdp, policy, count, horizon, (seed, "episodes"))
        if count else episode_set([], num_states, num_actions)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        save_episodes(episodes, path, discount=discount)
        loaded, loaded_discount = load_episodes(path)
    assert loaded_discount == discount
    assert (loaded.num_states, loaded.num_actions) == (num_states, num_actions)
    # The Step view, flattened back by the reference, gives the same columns too.
    rebuilt = episode_set(episodes.episodes, num_states, num_actions)
    for other_set in (loaded, rebuilt):
        for name, column in episodes.columns._asdict().items():
            other = getattr(other_set.columns, name)
            assert other.dtype == column.dtype and np.array_equal(other, column), name


# Floats whose json text is easy to get wrong: both signed zeros, exponent
# forms, the smallest subnormal and a sum that is not 0.3.
_TRICKY_FLOATS = [0.0, -0.0, 1e-05, 1e16, -2.5e-07, 5e-324, 0.1 + 0.2, 1.0]
_logged_steps = st.builds(
    Step,
    st.integers(0, 2),
    st.integers(0, 1),
    st.sampled_from(_TRICKY_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2),
    st.sampled_from([1.0, 0.5, 1e-05, 5e-324, 0.1 + 0.2]) | st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([False, True, 0, 1]),
)
# Steps drawn from a pool of up to six: a long file repeats them and a short
# one leaves them mostly distinct.
_logged_episodes = st.lists(_logged_steps, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.builds(Episode, st.integers(0, 2), st.lists(st.sampled_from(pool), max_size=12).map(tuple)),
        max_size=6,
    )
)


def _step(reward, terminal=False):
    return Step(0, 1, reward, 2, 0.5, terminal)


@PROPERTY
@given(episodes=_logged_episodes, discount=st.one_of(st.none(), st.floats(0.0, 0.999)))
@example(  # both signed zeros, within a line and across lines
    episodes=[Episode(0, tuple(map(_step, [0.0, -0.0, -0.0, 0.0] * 3))),
              Episode(1, (_step(-0.0),) * 4)],
    discount=None,
)
@example(episodes=[Episode(1, tuple(map(_step, _TRICKY_FLOATS)))], discount=0.9)  # all distinct
@example(  # the same steps flagged by bool and by int
    episodes=[Episode(0, (_step(1.0, True), _step(1.0, 1), _step(0.0, False), _step(0.0, 0)) * 3)],
    discount=0.999,
)
@example(episodes=[Episode(2, ()), Episode(0, ()), Episode(1, (_step(1e16),) * 4)], discount=0.0)
@example(episodes=[Episode(0, (_step(0.1 + 0.2, True),))], discount=0.5)  # a single step
@example(episodes=[], discount=None)
def test_episode_file_bytes_equal_the_reference_writer(episodes, discount):
    logged = episode_set(episodes, 3, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "episodes.jsonl", Path(tmp) / "reference.jsonl"
        save_episodes(logged, path, discount)
        save_episodes_reference(logged, reference, discount)
        assert path.read_bytes() == reference.read_bytes()


@PROPERTY
@given(
    num_states=st.integers(1, 5),
    num_actions=st.integers(1, 3),
    count=st.integers(1, 30),
    horizon=st.integers(1, 20),
    terminal=st.sets(st.integers(0, 4), max_size=3),
    pick_bytes=st.sampled_from([0, 64, 1 << 20]),
    seed=seeds,
)
def test_lockstep_sampler_rolls_out_every_episode(
    num_states, num_actions, count, horizon, terminal, pick_bytes, seed
):
    mdp = with_terminals(
        make_random_mdp(num_states, num_actions, 0.9, (seed, "mdp")),
        {s for s in terminal if s < num_states},
    )
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    # A small pick budget gathers the CDF columns a few at a time.
    with mock.patch.object(mdp_module, "_PICK_BYTES", pick_bytes):
        episodes = sample_episodes(mdp, policy, count, horizon, (seed, "episodes"))
    assert episodes == lockstep_episodes(mdp, policy, count, horizon, (seed, "episodes"))
    for episode in episodes.episodes:
        state, steps = episode.initial_state, episode.steps
        assert len(steps) <= horizon
        for step in steps:
            assert step.state == state and state not in mdp.terminal_states
            assert step.behavior_prob == policy.probs[step.state, step.action]
            assert step.reward in [v for v, _ in mdp.rewards[step.state][step.action]]
            assert step.terminal == (step.next_state in mdp.terminal_states)
            state = step.next_state
        # An episode stops before the horizon only in a terminal state.
        assert len(steps) == horizon or state in mdp.terminal_states


@st.composite
def ragged_episode_sets(draw):
    """(episodes, S, A): hand-made Step episodes of mixed lengths, empty ones
    included, with terminal flags anywhere."""
    num_states, num_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    state, action = st.integers(0, num_states - 1), st.integers(0, num_actions - 1)
    step = st.builds(
        Step, state, action, st.floats(-5.0, 5.0), state, st.floats(0.05, 1.0), st.booleans()
    )
    episode = st.builds(Episode, state, st.lists(step, max_size=7).map(tuple))
    return draw(st.lists(episode, max_size=8)), num_states, num_actions


@PROPERTY
@given(case=ragged_episode_sets(), discount=st.floats(0.0, 0.99), seed=seeds)
def test_backward_sweep_equals_recursion_oracle(case, discount, seed):
    episodes, num_states, num_actions = case
    eps = episode_set(episodes, num_states, num_actions)
    target = make_random_policy(num_states, num_actions, (seed, "target"))
    model = make_random_mdp(num_states, num_actions, discount, (seed, "model"))
    q = q_values(model, target)
    v = solvers.state_values(q, target.probs)
    pdis = per_decision_is(eps, target, discount)
    dr = dr_estimate(eps, target, model, discount)
    assert pdis.values.tolist() == [recursive_estimate(ep, target, discount) for ep in episodes]
    assert dr.values.tolist() == [recursive_estimate(ep, target, discount, q, v) for ep in episodes]
    assert (pdis.range_bound, dr.range_bound) == range_bounds(eps, target, discount, q, v)


@PROPERTY
@given(
    num_states=st.integers(1, 5),
    num_actions=st.integers(1, 3),
    n=st.integers(1, 60),
    discount=st.floats(0.0, 0.99),
    seed=seeds,
)
def test_huge_kappa_dm_value_is_the_pure_prior_value(num_states, num_actions, n, discount, seed):
    mdp = make_random_mdp(num_states, num_actions, discount, (seed, "mdp"))
    prior = make_random_mdp(num_states, num_actions, discount, (seed, "prior"))
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    priors = PriorSpec(prior.mean_reward, prior.transitions)
    model = build_empirical_model(
        sample_tuples(mdp, n, (seed, "tuples")), priors, kappa=1e12, discount=discount
    )
    # The prior model keeps only the data's start-state frequencies.
    rewards = [[((mean, 1.0),) for mean in row] for row in prior.mean_reward.tolist()]
    pure = TabularMdp(
        num_states, num_actions, prior.transitions, rewards, model.initial_dist, discount
    )
    assert abs(dm_value(model, policy) - exact_policy_value(pure, policy)) <= 1e-9


_KEYS = [
    "meta", "num_states", "num_actions", "discount", "initial_state", "steps", "probs", "map",
    "slip_prob", "transitions", "rewards", "initial_dist", "terminal_states", "r_max",
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=30,
)
_json_lines = st.lists(_json_values.map(json.dumps), max_size=4).map("\n".join)
# Episode files of the right shape whose fields hold any small JSON scalar.
_scalars = st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=2)
_episode_file = st.tuples(
    st.fixed_dictionaries({"meta": st.fixed_dictionaries(
        {"num_states": _scalars | st.just(5), "num_actions": _scalars | st.just(2)},
        optional={"discount": _scalars},
    )}),
    st.lists(st.fixed_dictionaries({
        "initial_state": _scalars,
        "steps": st.lists(st.lists(_scalars, min_size=5, max_size=7), max_size=3),
    }), max_size=3),
).map(lambda parts: "\n".join(json.dumps(doc) for doc in [parts[0], *parts[1]]))
_file_bytes = st.one_of(
    st.binary(max_size=200),
    st.one_of(_json_values.map(json.dumps), _json_lines, _episode_file).map(str.encode),
)


@PROPERTY
@given(content=_file_bytes)
def test_loaders_raise_only_validation_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        for loader in (load_episodes, load_policy, load_mdp):
            try:
                loader(path)
            except ValidationError:
                pass
