"""MDP types, exact oracles, environment constructors, and sampling."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from opeci import (
    Policy,
    PriorSpec,
    TabularMdp,
    TupleDataset,
    ValidationError,
    exact_policy_value,
    make_bernoulli_bandit,
    make_counterexample_chain,
    make_frozen_lake,
    make_random_mdp,
    make_random_policy,
    on_policy_distribution,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    q_values,
    sample_episodes,
    uniform_policy,
)
from opeci.mdp import Episode, EpisodeSet, Step, StepColumns, _cdf, categorical

from _oracles import (
    episode_set, mc_value, mc_visitation, normalized_return, value_iteration_policy, with_terminals,
)


def all_ones_mdp(num_states=3, num_actions=2, discount=0.7):
    """Every reward deterministically 1; random-ish ring transitions."""
    transitions = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        for a in range(num_actions):
            transitions[s, a, (s + a + 1) % num_states] = 1.0
    rewards = [[((1.0, 1.0),)] * num_actions for _ in range(num_states)]
    initial = np.zeros(num_states)
    initial[0] = 1.0
    return TabularMdp(num_states, num_actions, transitions, rewards, initial, discount)


class TestValidate:
    """A TabularMdp checks itself when built and names the first problem."""

    def build(self, **changes):
        mdp = all_ones_mdp()
        fields = dict(
            transitions=np.array(mdp.transitions), rewards=mdp.rewards,
            initial_dist=np.array(mdp.initial_dist), discount=0.7,
        )
        fields.update(changes)
        return TabularMdp(3, 2, **fields)

    def test_well_formed_mdps_construct(self):
        for mdp in (all_ones_mdp(), make_frozen_lake(), make_counterexample_chain(50, 0.5)):
            # Rebuilding from the canonical fields runs every check again.
            assert dataclasses.replace(mdp, discount=0.5).discount == 0.5

    def test_deficient_transition_row_named_with_deficit(self):
        bad = np.array(all_ones_mdp().transitions)
        bad[1, 0] *= 0.9
        with pytest.raises(ValidationError, match=r"transition row at \(s=1, a=0\).*deficit"):
            self.build(transitions=bad)

    def test_reward_bound_violation_reported(self):
        rewards = [[((5.0, 1.0),)] * 2] + [[((1.0, 1.0),)] * 2] * 2
        message = r"reward values at \(s=0, a=0\) exceed bound r_max"
        with pytest.raises(ValidationError, match=message):
            self.build(rewards=rewards)

    def test_initial_dist_and_discount_checks(self):
        with pytest.raises(ValidationError, match="initial_dist must be non-negative and sum to 1"):
            self.build(initial_dist=np.array([0.5, 0.4, 0.0]))
        for discount in (1.0, -0.1):
            with pytest.raises(ValidationError, match=r"discount must lie in \[0, 1\)"):
                self.build(discount=discount)
            with pytest.raises(ValidationError, match=r"discount must lie in \[0, 1\)"):
                self.build().with_discount(discount)

    def test_non_absorbing_terminal_reported(self):
        with pytest.raises(ValidationError, match="terminal state 0 is not absorbing under action"):
            self.build(terminal_states=frozenset({0}))
        with pytest.raises(ValidationError, match="terminal states"):
            self.build(terminal_states=frozenset({3}))

    @pytest.mark.parametrize(
        "support, error",
        [(((1.0, "a"),), "could not convert"), (((1.0, 0.5, 0.5),), "too many values"),
         ((1.0,), "cannot unpack"), (1.0, "not iterable")],
        ids=["string", "three entries", "bare float entry", "bare float support"],
    )
    def test_malformed_reward_support_named(self, support, error):
        rewards = [[((1.0, 1.0),)] * 2, [((1.0, 1.0),), support], [((1.0, 1.0),)] * 2]
        message = rf"^reward support at \(s=1, a=1\) must hold \(value, prob\) pairs .*{error}"
        with pytest.raises(ValidationError, match=message):
            self.build(rewards=rewards)

    def test_nan_rejected(self):
        nan = float("nan")
        transitions = np.array(all_ones_mdp().transitions)
        transitions[2, 1, 0] = nan
        for changes, message in (
            ({"transitions": transitions}, r"transition row at \(s=2, a=1\)"),
            ({"rewards": [[((1.0, nan),)] * 2] * 3}, r"reward support at \(s=0, a=0\)"),
            ({"rewards": [[((nan, 1.0),)] * 2] * 3}, r"reward values at \(s=0, a=0\)"),
            ({"initial_dist": np.array([nan, 1.0, 0.0])}, "initial_dist"),
            ({"discount": nan}, "discount"),
        ):
            with pytest.raises(ValidationError, match=message):
                self.build(**changes)


class TestExactPolicyValue:
    def test_all_rewards_one_gives_exactly_one(self):
        # (1-g) * sum g^t * 1 telescopes to 1 for any policy.
        mdp = all_ones_mdp(discount=0.9)
        policy = uniform_policy(3, 2)
        assert exact_policy_value(mdp, policy) == pytest.approx(1.0, abs=1e-12)

    def test_counterexample_chain_quarter(self):
        mdp = make_counterexample_chain(50, 0.5)
        policy = uniform_policy(mdp.num_states, 1)
        assert abs(exact_policy_value(mdp, policy) - 0.25) < 1e-10

    def test_matches_monte_carlo_oracle(self):
        mdp = make_random_mdp(5, 2, 0.8, rng_seed=123)
        policy = make_random_policy(5, 2, rng_seed=456)
        exact = exact_policy_value(mdp, policy)
        est, se = mc_value(mdp, policy, n_episodes=1_000_000, horizon=160, seed=9)
        assert abs(est - exact) < 3 * se

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            exact_policy_value(all_ones_mdp(), uniform_policy(4, 2))


class TestOnPolicyDistribution:
    def test_single_absorbing_state(self):
        mdp = TabularMdp(1, 1, np.ones((1, 1, 1)), [[((0.0, 1.0),)]], np.ones(1), 0.5)
        dist = on_policy_distribution(mdp, uniform_policy(1, 1))
        assert dist[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_chain_branch_masses(self):
        mdp = make_counterexample_chain(50, 0.5)
        dist = on_policy_distribution(mdp, uniform_policy(mdp.num_states, 1))
        for n in range(1, 50):  # non-truncated branches only
            assert abs(dist[n, 0] - 3.0 / (2.0 * math.pi**2 * n**2)) < 1e-10

    def test_normalization_and_sign(self):
        mdp = make_random_mdp(6, 3, 0.95, rng_seed=5)
        dist = on_policy_distribution(mdp, make_random_policy(6, 3, rng_seed=6))
        assert abs(dist.sum() - 1.0) < 1e-10
        assert (dist >= 0).all()

    def test_matches_rollout_frequencies(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=11)
        policy = make_random_policy(4, 2, rng_seed=12)
        exact = on_policy_distribution(mdp, policy)
        est, se = mc_visitation(mdp, policy, n_episodes=1_000_000, horizon=160, seed=13)
        assert (np.abs(est - exact) < 3 * se + 1e-9).all()


class TestQValues:
    def test_all_rewards_one(self):
        mdp = all_ones_mdp(discount=0.9)
        q = q_values(mdp, uniform_policy(3, 2))
        assert np.allclose(q, 1.0 / (1.0 - 0.9), atol=1e-9)

    def test_chain_backward_induction(self):
        # Hand induction at discount 0.5: absorbing state pays 1 forever -> 2;
        # intermediate states reach it next step -> 0 + 0.5*2 = 1; the start
        # fans out to intermediates -> 0 + 0.5*1 = 0.5.
        mdp = make_counterexample_chain(50, 0.5)
        q = q_values(mdp, uniform_policy(mdp.num_states, 1))
        assert q[51, 0] == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(q[1:51, 0], 1.0, atol=1e-10)
        assert q[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_bellman_residual(self):
        mdp = make_random_mdp(5, 3, 0.9, rng_seed=21)
        policy = make_random_policy(5, 3, rng_seed=22)
        q = q_values(mdp, policy)
        v = (policy.probs * q).sum(axis=1)
        backup = mdp.mean_reward + mdp.discount * mdp.transitions @ v
        assert np.abs(q - backup).max() < 1e-9

    def test_value_consistency_identities(self):
        mdp = make_random_mdp(5, 3, 0.9, rng_seed=31)
        policy = make_random_policy(5, 3, rng_seed=32)
        value = exact_policy_value(mdp, policy)
        q = q_values(mdp, policy)
        p0 = (mdp.initial_dist[:, None] * policy.probs).reshape(-1)
        assert abs((1 - mdp.discount) * (p0 @ q.reshape(-1)) - value) < 1e-9
        dist = on_policy_distribution(mdp, policy)
        assert abs((dist * mdp.mean_reward).sum() - value) < 1e-9


def test_mean_rewards_read_only_and_exact():
    mdp = make_random_mdp(5, 3, 0.9, rng_seed=14)
    means = mdp.mean_reward
    assert not means.flags.writeable
    for s in range(5):
        for a in range(3):
            assert means[s, a] == sum(v * p for v, p in mdp.rewards[s][a])


class TestSampleEpisodes:
    def test_deterministic_mdp_identical_episodes(self):
        mdp = TabularMdp(1, 1, np.ones((1, 1, 1)), [[((0.5, 1.0),)]], np.ones(1), 0.9)
        eps = sample_episodes(mdp, uniform_policy(1, 1), 3, 2, rng_seed=0)
        assert len(eps.episodes) == 3
        assert all(len(e.steps) == 2 for e in eps.episodes)
        assert eps.episodes[0] == eps.episodes[1] == eps.episodes[2]

    def test_same_seed_identical(self):
        mdp = make_frozen_lake()
        policy = uniform_policy(mdp.num_states, mdp.num_actions)
        a = sample_episodes(mdp, policy, 20, 100, rng_seed=77)
        b = sample_episodes(mdp, policy, 20, 100, rng_seed=77)
        assert a == b

    def test_structure_and_behavior_probs(self):
        mdp = make_frozen_lake()
        policy = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
        eps = sample_episodes(mdp, policy, 50, 500, rng_seed=3)
        for ep in eps.episodes:
            assert ep.steps[0].state == ep.initial_state
            for prev, nxt in zip(ep.steps, ep.steps[1:]):
                assert prev.next_state == nxt.state
            for step in ep.steps:
                assert step.behavior_prob == policy.probs[step.state, step.action] > 0
            if ep.steps[-1].terminal:
                assert ep.steps[-1].next_state in mdp.terminal_states

    def test_mean_return_matches_exact_value(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=41)
        policy = make_random_policy(4, 2, rng_seed=42)
        eps = sample_episodes(mdp, policy, 100_000, 120, rng_seed=43)
        returns = np.array([normalized_return(e, mdp.discount) for e in eps.episodes])
        exact = exact_policy_value(mdp, policy)
        se = returns.std(ddof=1) / math.sqrt(len(returns))
        # horizon-120 truncation at discount 0.8 is ~1e-12 of the value
        assert abs(returns.mean() - exact) < 3 * se

    def test_shared_generator_advances_by_exactly_its_draws(self):
        # count uniforms for the initial states, then three per step taken.
        mdp = with_terminals(make_random_mdp(4, 3, 0.9, rng_seed=5), {0})
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        eps = sample_episodes(mdp, make_random_policy(4, 3, rng_seed=6), 50, 6, rng)
        steps = int(eps.columns.lengths.sum())
        assert 0 < steps < 50 * 6
        twin.random(50 + 3 * steps)
        assert rng.random() == twin.random()

    def test_bad_horizon_rejected(self):
        mdp = all_ones_mdp()
        with pytest.raises(ValidationError):
            sample_episodes(mdp, uniform_policy(3, 2), 1, 0, rng_seed=0)

    def test_categorical_counts_masses_at_or_below_each_uniform(self):
        # Columns: [0.5, 0.5], [0, 0.25, 0.75] and [0.3, 0.7 - 1e-12], whose
        # total rounds below 1; a wide column is gathered in more than one block.
        cdf = _cdf(np.array([[0.5, 0.0, 0.3], [0.5, 0.25, 0.7 - 1e-12], [0.0, 0.75, 0.0]]))
        dists = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        u = np.array([0.0, 0.5, 0.9999, 0.0, 0.25, 0.2, 0.3, 0.99999999999999])
        assert categorical(cdf, dists, u).tolist() == [0, 1, 1, 1, 2, 1, 1, 2]
        cdf = _cdf(np.full((2**18, 1), 2.0**-18))  # 2 MB a column: one uniform per block
        assert categorical(cdf, np.zeros(3, np.intp), np.array([0.0, 0.5, 0.999999])).tolist() == [
            0, 2**17, 2**18 - 1]

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_episode_rejected(self, count):
        with pytest.raises(ValidationError, match="count must be >= 1"):
            sample_episodes(all_ones_mdp(), uniform_policy(3, 2), count, 5, rng_seed=0)

    @pytest.mark.parametrize("case, digest", [
        ("lake", "e08e1ef2626451d19dafed1ea5cb9ff0af2693d0b4e8017c9f1adb62f53adbcb"),
        ("random", "1bc807dcbd03bc346774522a8c3b53ee7fc86553a59f15b70652030ef1976e6a"),
    ], ids=["lake", "random"])
    def test_golden_columns(self, case, digest):
        # The lockstep draw stream is pinned; test_properties checks the same
        # stream against a one-step-at-a-time oracle.
        if case == "lake":
            mdp = make_frozen_lake()
            policy = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
            eps = sample_episodes(mdp, policy, 300, 10_000, rng_seed=11)
        else:
            # A terminal state gives empty, ragged and cut episodes.
            mdp = with_terminals(make_random_mdp(4, 3, 0.9, rng_seed=5), {0})
            eps = sample_episodes(mdp, make_random_policy(4, 3, rng_seed=6), 300, 4, rng_seed=12)
        assert columns_digest(eps) == digest


def columns_digest(episodes):
    h = hashlib.sha256()
    for column in episodes.columns:
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    return h.hexdigest()


class TestEpisodeSet:
    def test_columns_mirror_steps(self):
        mdp = make_frozen_lake()
        policy = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
        eps = sample_episodes(mdp, policy, 30, 5, rng_seed=8)
        cols = eps.columns
        steps = [step for ep in eps.episodes for step in ep.steps]
        assert cols.lengths.tolist() == [len(ep.steps) for ep in eps.episodes]
        assert cols.s0.tolist() == [ep.initial_state for ep in eps.episodes]
        for i, name in enumerate(("s", "a", "r", "sp", "behavior_prob", "terminal")):
            assert getattr(cols, name).tolist() == [step[i] for step in steps]
            assert not getattr(cols, name).flags.writeable
        assert eps.truncated == sum(not ep.steps[-1].terminal for ep in eps.episodes)

    def test_view_is_cached_and_matches_reference_flatten(self):
        mdp = make_frozen_lake()
        eps = sample_episodes(mdp, uniform_policy(mdp.num_states, 4), 20, 30, rng_seed=9)
        assert eps.episodes is eps.episodes
        assert episode_set(eps.episodes, mdp.num_states, 4) == eps
        assert eps != sample_episodes(mdp, uniform_policy(mdp.num_states, 4), 20, 30, rng_seed=10)

    def test_empty_columns_need_explicit_dtypes(self):
        empty = StepColumns(*(np.array([], dtype) for dtype in "iiifif?i"))
        assert len(EpisodeSet(empty, 2, 2)) == 0 and EpisodeSet(empty, 2, 2).episodes == ()
        with pytest.raises(ValidationError, match="not 1-d int64"):
            EpisodeSet(StepColumns(*(np.array([]) for _ in StepColumns._fields)), 2, 2)

    @pytest.mark.parametrize("overrides", [
        {"s0": [0.0]}, {"a": [1.0]}, {"terminal": [1]}, {"r": [1]}, {"lengths": [True]},
        {"s": [[1]]}, {"lengths": [2]}, {"s0": [0, 0]}, {"sp": [0, 0]},
        {"s0": [0, 0], "lengths": [-1, 2]},
    ])
    def test_malformed_columns_rejected(self, overrides):
        good = dict(s0=[0], s=[1], a=[1], r=[1.0], sp=[0], behavior_prob=[1.0],
                    terminal=[True], lengths=[1])
        assert len(EpisodeSet(StepColumns(**{k: np.array(v) for k, v in good.items()}), 2, 2)) == 1
        columns = {k: np.array(v) for k, v in {**good, **overrides}.items()}
        with pytest.raises(ValidationError):
            EpisodeSet(StepColumns(**columns), 2, 2)

    def test_truncated_skips_empty_episodes(self):
        done, cut = Step(0, 0, 0.0, 1, 1.0, True), Step(0, 0, 0.0, 0, 1.0, False)
        episodes = (Episode(0, ()), Episode(0, (cut, done)), Episode(0, (done, cut)))
        assert episode_set(episodes, 2, 1).truncated == 1

    @pytest.mark.parametrize(
        "initial, step",
        [
            (3, (0, 0, 0.0, 0, 0.5, False)),
            (-1, (0, 0, 0.0, 0, 0.5, False)),
            (0, (2, 0, 0.0, 0, 0.5, False)),
            (0, (-1, 0, 0.0, 0, 0.5, False)),
            (0, (0, 2, 0.0, 0, 0.5, False)),
            (0, (0, -1, 0.0, 0, 0.5, False)),
            (0, (0, 0, 0.0, 2, 0.5, False)),
            (0, (0, 0, 0.0, 0, 0.0, False)),
            (0, (0, 0, 0.0, 0, 1.5, False)),
            (0, (0, 0, 0.0, 0, math.nan, False)),
            (0, (0, 0, math.nan, 0, 0.5, False)),
            (0, (0, 0, math.inf, 0, 0.5, False)),
        ],
        ids=["initial-high", "initial-negative", "state-high", "state-negative", "action-high",
             "action-negative", "next-state-high", "prob-zero", "prob-above-one", "prob-nan",
             "reward-nan", "reward-inf"],
    )
    def test_malformed_step_rejected(self, initial, step):
        good = Episode(0, (Step(1, 1, 1.0, 0, 1.0, True),))
        with pytest.raises(ValidationError):
            episode_set((good, Episode(initial, (Step(*step),))), 2, 2)


class TestFrozenLake:
    def test_two_cell_strip_value(self):
        mdp = make_frozen_lake(slip_prob=0.0, grid=("SG",), discount=0.9)
        value = exact_policy_value(mdp, optimal_policy(mdp))
        assert value == pytest.approx((1 - 0.9) * 0.9, abs=1e-12)

    def test_default_map_value_magnitude(self):
        mdp = make_frozen_lake()
        value = exact_policy_value(mdp, optimal_policy(mdp))
        assert 1e-4 <= value <= 1e-3

    def test_rows_stochastic(self):
        mdp = make_frozen_lake(slip_prob=0.25)
        assert np.abs(mdp.transitions.sum(axis=2) - 1.0).max() < 1e-12

    def test_malformed_grids_rejected(self):
        with pytest.raises(ValidationError):
            make_frozen_lake(grid=("SF", "FFF"))
        with pytest.raises(ValidationError):
            make_frozen_lake(grid=("SS", "FG"))
        with pytest.raises(ValidationError):
            make_frozen_lake(grid=("SF", "FF"))
        with pytest.raises(ValidationError):
            make_frozen_lake(grid=("SX", "FG"))
        with pytest.raises(ValidationError):
            make_frozen_lake(slip_prob=0.6)

    def test_goal_pays_once_then_absorbs(self):
        mdp = make_frozen_lake(slip_prob=0.0, grid=("SG",), discount=0.9)
        eps = sample_episodes(mdp, optimal_policy(mdp), 1, 50, rng_seed=0)
        rewards = [s.reward for s in eps.episodes[0].steps]
        assert rewards == [0.0, 1.0]  # move onto goal, then exit reward once


@pytest.mark.parametrize(
    "mdp",
    [
        make_frozen_lake(), make_frozen_lake(discount=0.95), make_frozen_lake(slip_prob=0.0),
        make_frozen_lake(slip_prob=0.0, grid=("SG",), discount=0.9), make_counterexample_chain(50, 0.5),
        make_bernoulli_bandit(0.5), make_bernoulli_bandit(0.5).with_discount(0.9), all_ones_mdp(),
    ]
    + [make_random_mdp(8, 3, g, ("optimal", i)) for g in (0.0, 0.5, 0.95, 0.999) for i in range(10)],
)
def test_optimal_policy_matches_value_iteration(mdp):
    assert np.array_equal(optimal_policy(mdp).probs, value_iteration_policy(mdp).probs)


class TestCounterexampleChain:
    def test_single_branch_value_is_discount_squared(self):
        for discount in (0.3, 0.5, 0.9):
            mdp = make_counterexample_chain(1, discount)
            value = exact_policy_value(mdp, uniform_policy(mdp.num_states, 1))
            assert value == pytest.approx(discount**2, abs=1e-10)

    def test_branch_probabilities_exact(self):
        mdp = make_counterexample_chain(50, 0.5)
        for n in range(1, 50):
            assert mdp.transitions[0, 0, n] == 6.0 / (math.pi**2 * n**2)
        assert mdp.transitions[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_size_rejected(self):
        with pytest.raises(ValidationError):
            make_counterexample_chain(0, 0.5)


class TestEpsilonGreedy:
    def test_zero_epsilon_identity(self):
        policy = make_random_policy(4, 3, rng_seed=1)
        perturbed = perturb_policy_epsilon_greedy(policy, 0.0)
        assert np.array_equal(perturbed.probs, policy.probs)

    def test_full_epsilon_uniform(self):
        policy = make_random_policy(4, 3, rng_seed=2)
        perturbed = perturb_policy_epsilon_greedy(policy, 1.0)
        assert np.allclose(perturbed.probs, 1.0 / 3.0)

    def test_deterministic_two_action_mixture(self):
        policy = Policy(np.array([[1.0, 0.0]]))
        perturbed = perturb_policy_epsilon_greedy(policy, 0.2)
        assert np.allclose(perturbed.probs, [[0.9, 0.1]])

    def test_rows_still_normalized(self):
        policy = make_random_policy(5, 4, rng_seed=3)
        for eps in (0.1, 0.5, 0.9):
            assert np.allclose(perturb_policy_epsilon_greedy(policy, eps).probs.sum(axis=1), 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            perturb_policy_epsilon_greedy(uniform_policy(2, 2), 1.5)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "probs",
        [[[3.0]], [[0.5, 0.6]], [[1.5, -0.5]], [[np.nan, 1.0]], [[np.inf, 0.0]], [0.5, 0.5], [[]]],
    )
    def test_non_distributions_rejected(self, probs):
        with pytest.raises(ValidationError):
            Policy(np.array(probs))

    def test_round_off_within_tolerance_accepted(self):
        Policy(np.array([[0.1, 0.2, 0.7 + 1e-15]]))


def row_table(shape, rows):
    """A table of ``shape`` whose rows are all (1, 0, ...), with each of
    ``rows`` ({location: entries}) written over the start of its row."""
    table = np.zeros(shape)
    table[..., 0] = 1.0
    for location, entries in rows.items():
        table[location] = 0.0
        table[location][: len(entries)] = entries
    return table


_ONES_REWARDS = [[((1.0, 1.0),)] * 2] * 3
_START = row_table((3,), {})
_STAY = row_table((3, 2, 3), {})

# Every table whose rows must be distributions: (row name, shape, constructor).
# The reward supports are read as (3, 2, 2) tables of the probabilities of
# the values 0 and 1.
ROW_TABLES = {
    "policy": ("policy row", (3, 2), Policy),
    "transitions": (
        "transition row", (3, 2, 3),
        lambda table: TabularMdp(3, 2, table, _ONES_REWARDS, _START, 0.7),
    ),
    "initial_dist": (
        "initial_dist", (3,), lambda table: TabularMdp(3, 2, _STAY, _ONES_REWARDS, table, 0.7),
    ),
    "transition prior": (
        "transition prior row", (3, 2, 3), lambda table: PriorSpec(transition_probs=table),
    ),
    "reward supports": (
        "reward support", (3, 2, 2),
        lambda table: TabularMdp(
            3, 2, _STAY,
            [[tuple(zip((0.0, 1.0), probs)) for probs in row] for row in table.tolist()],
            _START, 0.7,
        ),
    ),
}


# Two row locations in C order by table rank, and the first as messages name it.
_FIRST_AND_LATER = {
    1: ((), (), ""), 2: ((1,), (2,), " at (s=1)"), 3: ((1, 1), (2, 0), " at (s=1, a=1)"),
}


@pytest.mark.parametrize("table", ROW_TABLES)
def test_rows_of_every_table_checked_alike(table):
    what, shape, construct = ROW_TABLES[table]
    first, later, at = _FIRST_AND_LATER[len(shape)]
    named = rf"^{re.escape(what + at)} must be non-negative and sum to 1 \(deficit "
    # The first bad row is named with its deficit.
    with pytest.raises(ValidationError, match=named + r"0\.25\)$"):
        construct(row_table(shape, {later: [0.5, 0.0], first: [0.5, 0.25]}))
    # Non-finite entries, and a negative one in a row that sums to 1.
    for entries in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [2.0, -1.0]):
        with pytest.raises(ValidationError, match=named):
            construct(row_table(shape, {first: entries}))
    # Rows within 1e-12 of summing to 1 pass.
    with pytest.raises(ValidationError, match=named + r"(1\.99|2\.00)\d*e-12\)$"):
        construct(row_table(shape, {first: [0.5, 0.5 - 2e-12]}))
    construct(row_table(shape, {first: [0.5, 0.5 - 5e-13]}))


# The reward supports are pairs rather than one array, and are left out.
@pytest.mark.parametrize("bad", ["a", [0.5, 0.5]], ids=["string", "ragged"])
@pytest.mark.parametrize("table", [t for t in ROW_TABLES if t != "reward supports"])
def test_ragged_or_non_numeric_table_named(table, bad):
    what, shape, construct = ROW_TABLES[table]
    nested = row_table(shape, {}).tolist()
    row = nested
    for i in _FIRST_AND_LATER[len(shape)][0]:
        row = row[i]
    row[1] = bad
    with pytest.raises(ValidationError, match=rf"^{re.escape(what)} entries must be numbers"):
        construct(nested)


def test_constructors_leave_the_callers_arrays_writable():
    # A contiguous array of the wanted dtype used to be frozen in place.
    probs, transitions, initial = np.array([[0.5, 0.5]]), np.ones((1, 2, 1)), np.ones(1)
    columns = [np.zeros(2, np.int64) for _ in range(3)] + [np.ones(2), np.zeros(2, np.int64)]
    policy = Policy(probs)
    mdp = TabularMdp(1, 2, transitions, [[((1.0, 1.0),)] * 2], initial, 0.5)
    data = TupleDataset(*columns, 1, 2)
    for array in (probs, transitions, initial, *columns):
        assert array.flags.writeable
    for frozen in (policy.probs, mdp.transitions, mdp.initial_dist, data.s0, data.r):
        assert not frozen.flags.writeable
    probs[0, 0], transitions[0, 0, 0], columns[3][0] = 0.0, 0.0, 7.0
    assert policy.probs[0, 0] == 0.5 and mdp.transitions[0, 0, 0] == 1.0 and data.r[0] == 1.0
    # A read-only array of the wanted kind is taken as it is.
    assert Policy(policy.probs).probs is policy.probs
