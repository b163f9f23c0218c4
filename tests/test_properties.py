"""Property tests: invariants checked on generated inputs.

Every property runs derandomized, with no example database and at most 50
examples, so the suite stays deterministic and fast.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from opeci import ValidationError, build_empirical_model, dm_value, sample_episodes
from opeci.empirical import TupleDataset, sample_tuples
from opeci.io import load_episodes, load_mdp, load_policy, save_episodes
from opeci.mdp import make_random_mdp, make_random_policy

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

seeds = st.integers(0, 2**32 - 1)


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
    count=st.integers(0, 12),
    horizon=st.integers(1, 15),
    terminal=st.sets(st.integers(0, 4), max_size=3),
    discount=st.one_of(st.none(), st.floats(0.0, 0.999)),
    seed=seeds,
)
def test_episode_file_round_trip_keeps_columns(
    num_states, num_actions, count, horizon, terminal, discount, seed
):
    # Terminal states that need not absorb give ragged, empty and terminal-flagged episodes.
    mdp = dataclasses.replace(
        make_random_mdp(num_states, num_actions, 0.9, (seed, "mdp")),
        terminal_states=frozenset(s for s in terminal if s < num_states),
    )
    policy = make_random_policy(num_states, num_actions, (seed, "policy"))
    episodes = sample_episodes(mdp, policy, count, horizon, (seed, "episodes"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        save_episodes(episodes, path, discount=discount)
        loaded, loaded_discount = load_episodes(path)
    assert loaded_discount == discount
    assert (loaded.num_states, loaded.num_actions) == (num_states, num_actions)
    for name, column in episodes.columns._asdict().items():
        other = getattr(loaded.columns, name)
        assert other.dtype == column.dtype and np.array_equal(other, column), name


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
