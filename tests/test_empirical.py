"""Dataset containers, empirical models, noise augmentation, resampling."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from opeci import (
    PriorSpec,
    TupleDataset,
    ValidationError,
    augment_noisy_rewards,
    build_empirical_model,
    make_frozen_lake,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    sample_episodes,
    sufficient_noise_scale,
    tuples_from_episodes,
)
from opeci.bootstrap import bootstrap_replicas
from opeci.empirical import resample_counts, sample_tuples
from opeci.mdp import make_bernoulli_bandit, make_random_mdp

from _oracles import episode_set, logged_tuples, unique_resample_counts


def single_tuple_dataset(r=1.0, num_states=3, num_actions=2):
    return TupleDataset.from_tuples([(0, 1, 0, r, 2)], num_states, num_actions)


class TestTupleDataset:
    @pytest.mark.parametrize("column, value", [
        ("sp", [1]),  # would broadcast to every tuple
        ("s0", [0, 0]),
        ("s0", [0, 0, 0, 0]),
        ("s", [[0, 1, 1]]),
    ])
    def test_column_shape_mismatch_rejected(self, column, value):
        columns = dict(s0=[0, 0, 0], s=[0, 1, 1], a=[0, 0, 1], r=[1.0, 0.0, 2.0], sp=[1, 1, 0])
        columns[column] = value
        with pytest.raises(ValidationError, match="must be 1-d and of one length"):
            TupleDataset(**columns, num_states=2, num_actions=2)

    @pytest.mark.parametrize("column, value", [
        ("s", 1.7),  # a float state
        ("a", True),  # a bool action
        ("r", "1.5"),  # a string reward
        ("sp", None),  # an object column
    ])
    @pytest.mark.parametrize("route", ["columns", "tuples"])
    def test_column_of_wrong_kind_rejected(self, column, value, route):
        columns = dict(s0=[0, 0], s=[0, 1], a=[1, 0], r=[1.0, 2], sp=[1, 0])
        with pytest.raises(ValidationError, match=f"tuple column {column} holds"):
            if route == "columns":
                columns[column] = np.array([value, value])
                TupleDataset(**columns, num_states=2, num_actions=2)
            else:
                # One good value first: numpy alone would read (0, True) as integers.
                columns[column] = [columns[column][0], value]
                TupleDataset.from_tuples(list(zip(*columns.values())), 2, 2)


class TestTuplesFromEpisodes:
    def test_single_episode_s0_propagates(self):
        mdp = make_frozen_lake()
        eps = sample_episodes(mdp, optimal_policy(mdp), 1, 3, rng_seed=0)
        data = tuples_from_episodes(eps)
        assert data.n == len(eps.episodes[0].steps)
        assert (data.s0 == eps.episodes[0].initial_state).all()

    def test_tuple_count_sums_episode_lengths(self):
        mdp = make_frozen_lake()
        behavior = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.3)
        eps = sample_episodes(mdp, behavior, 7, 50, rng_seed=1)
        data = tuples_from_episodes(eps)
        assert data.n == sum(len(e.steps) for e in eps.episodes)

    def test_initial_distribution_recount(self):
        mdp = make_frozen_lake()
        behavior = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
        eps = sample_episodes(mdp, behavior, 100, 200, rng_seed=2)
        data = tuples_from_episodes(eps)
        model = build_empirical_model(data, discount=0.9)
        # independent recount: each episode contributes its length in weight
        expected = np.zeros(mdp.num_states)
        for ep in eps.episodes:
            expected[ep.initial_state] += len(ep.steps)
        expected /= expected.sum()
        assert np.allclose(model.initial_dist, expected, atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            tuples_from_episodes(episode_set((), 2, 2))


class TestBuildEmpiricalModel:
    def test_single_tuple_deltas_and_prior_elsewhere(self):
        data = single_tuple_dataset(r=1.0)
        model = build_empirical_model(data, kappa=0.0, discount=0.5)
        assert model.mean_reward[1, 0] == 1.0
        assert model.transitions[1, 0, 2] == 1.0
        # unvisited pairs sit at the priors bit-exactly
        prior_reward, prior_trans = model.priors.resolve(3, 2)
        visited = np.zeros((3, 2), dtype=bool)
        visited[1, 0] = True
        assert (model.mean_reward[~visited] == prior_reward[~visited]).all()
        assert (model.transitions[~visited] == prior_trans[~visited]).all()

    def test_blended_mean_direct_substitution(self):
        # pair mass 0.5, sample mean 1, prior mean 0, kappa 0.5 -> 0.5
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0), (0, 1, 0, 0.0, 0)], 2, 1)
        model = build_empirical_model(data, kappa=0.5, discount=0.5)
        assert model.mean_reward[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_huge_kappa_converges_to_priors(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=1)
        data = sample_tuples(mdp, 500, rng_seed=2)
        priors = PriorSpec(reward_mean=0.25)
        model = build_empirical_model(data, priors, kappa=1e9, discount=0.8)
        prior_reward, prior_trans = priors.resolve(4, 2)
        assert np.abs(model.mean_reward - prior_reward).max() < 1e-6
        assert np.abs(model.transitions - prior_trans).max() < 1e-6

    def test_transition_rows_sum_to_one_for_positive_kappa(self):
        mdp = make_random_mdp(5, 3, 0.8, rng_seed=3)
        data = sample_tuples(mdp, 40, rng_seed=4)
        model = build_empirical_model(data, kappa=0.7, discount=0.8)
        assert np.abs(model.transitions.sum(axis=2) - 1.0).max() < 1e-12

    def test_leave_one_out_smoothness(self):
        # dropping one tuple moves the blended mean by at most
        # 2*r_max / (n * kappa) once kappa carries mass n*kappa
        rng = np.random.default_rng(5)
        n, kappa, r_max = 400, 0.25, 1.0
        data = TupleDataset(
            np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            rng.uniform(-r_max, r_max, n), np.zeros(n, dtype=int), 1, 1,
        )
        base = build_empirical_model(data, kappa=kappa, discount=0.5).mean_reward[0, 0]
        worst = 0.0
        for drop in range(0, n, 40):
            w = np.ones(n)
            w[drop] = 0.0
            # kappa mass scales with the reduced total weight; rebuild accordingly
            loo = build_empirical_model(data, kappa=kappa * n / (n - 1), discount=0.5, weights=w)
            worst = max(worst, abs(loo.mean_reward[0, 0] - base))
        assert worst <= 2 * r_max / (n * kappa)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValidationError):
            build_empirical_model(single_tuple_dataset(), kappa=-1.0, discount=0.5)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0), (0, 0, 0, 0.0, 0)], 1, 1)
        with pytest.raises(ValidationError, match="weights must be finite"):
            build_empirical_model(data, discount=0.5, weights=np.array([1.0, weight]))

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_non_finite_tuple_reward_rejected(self, reward):
        with pytest.raises(ValidationError, match="rewards must be finite"):
            TupleDataset.from_tuples([(0, 0, 0, 1.0, 0), (0, 0, 0, reward, 0)], 1, 1)


def point_transition_rows(num_states, num_actions):
    return np.tile(np.eye(num_states)[:, None, :], (1, num_actions, 1))


class TestPriorSpec:
    @pytest.mark.parametrize("mean", [np.nan, np.inf, np.array([[0.0, np.nan]])])
    def test_non_finite_reward_prior_rejected(self, mean):
        with pytest.raises(ValidationError, match="reward prior must be finite"):
            PriorSpec(reward_mean=mean)

    def test_nan_transition_prior_rejected(self):
        rows = point_transition_rows(3, 2)
        rows[1, 0] = np.nan
        with pytest.raises(ValidationError, match="transition prior"):
            PriorSpec(transition_probs=rows)

    def test_negative_transition_prior_rejected(self):
        # the row sums to 1, so only the sign test can reject it
        rows = point_transition_rows(3, 2)
        rows[2, 1] = [2.0, -1.0, 0.0]
        with pytest.raises(ValidationError, match="transition prior"):
            PriorSpec(transition_probs=rows)

    def test_unnormalized_transition_prior_rejected(self):
        rows = point_transition_rows(3, 2)
        rows[0, 0, 1] = 1e-9
        with pytest.raises(ValidationError, match="transition prior"):
            PriorSpec(transition_probs=rows)

    def test_non_numeric_reward_prior_rejected(self):
        with pytest.raises(ValidationError, match="reward prior must hold numbers"):
            PriorSpec(reward_mean=[[0.0, "a"]])

    def test_reward_prior_not_broadcasting_to_pairs_rejected(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 1), (1, 1, 1, 0.0, 0)], 2, 2)
        priors = PriorSpec(reward_mean=np.zeros(3))
        with pytest.raises(ValidationError, match=r"reward prior shape \(3,\) does not broadcast"):
            build_empirical_model(data, priors, 0.1, discount=0.9)

    def test_valid_prior_resolves(self):
        rows = point_transition_rows(3, 2)
        reward, trans = PriorSpec(0.5, rows).resolve(3, 2)
        assert np.array_equal(trans, rows) and (reward == 0.5).all()
        with pytest.raises(ValidationError, match="shape"):
            PriorSpec(0.5, rows).resolve(3, 1)


class TestNoiseAugmentation:
    def test_zero_rewards_unit_noise(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 0.0, 0)] * 4, 1, 1)
        aug = augment_noisy_rewards(data, 1.0)
        assert aug.n == 12
        assert sorted(set(aug.r.tolist())) == [-1.0, 0.0, 1.0]
        assert np.var(aug.r) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_noise_keeps_variance(self):
        data = TupleDataset.from_tuples([(0, 0, 0, float(v), 0) for v in (0, 2, 5)], 1, 1)
        aug = augment_noisy_rewards(data, 0.0)
        assert aug.n == 9
        assert np.var(aug.r) == pytest.approx(np.var(data.r), abs=1e-15)

    def test_variance_identity_by_enumeration(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 0.0, 0), (0, 0, 0, 2.0, 0)], 1, 1)
        aug = augment_noisy_rewards(data, 3.0)
        # rewards {0,2, 3,5, -3,-1}: mean 1, variance 7 = (2/3)*9 + 1
        assert np.var(aug.r) == pytest.approx(7.0, abs=1e-14)

    def test_variance_identity_on_random_datasets(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            rewards = rng.normal(size=n) * rng.uniform(0.1, 5)
            data = TupleDataset(
                np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                rewards, np.zeros(n, dtype=int), 1, 1,
            )
            scale = float(rng.uniform(0, 3))
            aug = augment_noisy_rewards(data, scale)
            expected = (2.0 / 3.0) * scale**2 + np.var(rewards)
            assert abs(np.var(aug.r) - expected) < 1e-12

    def test_reward_multiset(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0), (0, 0, 0, 4.0, 0)], 1, 1)
        aug = augment_noisy_rewards(data, 0.5)
        assert sorted(aug.r.tolist()) == [0.5, 1.0, 1.5, 3.5, 4.0, 4.5]

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_scale_not_finite_nonnegative_rejected(self, scale):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0)], 1, 1)
        with pytest.raises(ValidationError, match="noise_scale"):
            augment_noisy_rewards(data, scale)


class TestNoiseScales:
    def test_sufficient_scale_values(self):
        assert sufficient_noise_scale(0.0, 0.5) == 0.0
        assert sufficient_noise_scale(1.0, 0.5) == pytest.approx(np.sqrt(1.5) * 2, abs=1e-12)
        assert sufficient_noise_scale(1.0, 0.999) == pytest.approx(1000 * np.sqrt(1.5), rel=1e-12)
        with pytest.raises(ValidationError):
            sufficient_noise_scale(1.0, 1.0)


def draws_digest(draws):
    h = hashlib.sha256()
    for idx in draws:
        h.update(np.ascontiguousarray(idx, dtype="<i8").tobytes())
    return h.hexdigest()


class TestResampling:
    def test_singleton_dataset_resamples_to_itself(self):
        point, diffs = bootstrap_replicas(np.array([1.5]), 5, rng_seed=0)
        assert point == 1.5 and diffs.tolist() == [0.0] * 5

    def test_same_seed_identical(self):
        values = np.random.default_rng(9).normal(size=50)
        a = bootstrap_replicas(values, 5, 10)[1]
        b = bootstrap_replicas(values, 5, 10)[1]
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != bootstrap_replicas(values, 5, 11)[1].tobytes()

    def test_support_preserved(self):
        # every drawn value is one of the data: replica means stay in their
        # range, and the indicator means of all values add up to 1
        def replica_means(v):
            point, diffs = bootstrap_replicas(v, 50, rng_seed=13)
            return point + diffs

        values = np.random.default_rng(12).normal(size=30)
        means = replica_means(values)
        assert (values.min() <= means).all() and (means <= values.max()).all()
        shares = sum(replica_means((values == v).astype(float)) for v in values)
        assert np.allclose(shares, 1.0, rtol=0, atol=1e-12)

    @staticmethod
    def distinct_rewards(n):
        return TupleDataset(
            np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            np.arange(n, dtype=float), np.zeros(n, dtype=int), 1, 1,
        )

    @staticmethod
    def assert_binomial_multiplicities(multiplicity, n):
        # each multiplicity is a Binomial(n, 1/n) draw
        max_k = 6
        observed = np.bincount(np.minimum(multiplicity, max_k), minlength=max_k + 1)
        pmf = stats.binom.pmf(np.arange(max_k), n, 1.0 / n)
        expected = np.append(pmf, 1.0 - pmf.sum()) * len(multiplicity)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_multiplicities_match_binomial(self):
        # n times a replica's mean of the indicator values == j is j's multiplicity;
        # over independent replicas it follows Binomial(n, 1/n)
        n, b = 1000, 10_000
        indicator = (np.arange(n) == 0).astype(float)
        point, diffs = bootstrap_replicas(indicator, b, rng_seed=14)
        scaled = n * (point + diffs)
        multiplicity = np.rint(scaled).astype(int)
        assert np.allclose(scaled, multiplicity, rtol=0, atol=1e-9)
        self.assert_binomial_multiplicities(multiplicity, n)

    def test_count_rows_match_binomial(self):
        n = 10_000
        distinct, draw = resample_counts(self.distinct_rewards(n), n, 14)
        assert distinct.n == n
        row = draw(1)[0]
        assert row.sum() == n
        self.assert_binomial_multiplicities(row, n)

    def test_augmented_counts_give_each_variant_its_mass(self):
        # base multiplicities c = 1, 2, 3: each of a tuple's three reward variants
        # is drawn with probability c / (3n), so n * c / (3n) = c / 3 times on average
        data = TupleDataset.from_tuples(
            [(0, 0, 0, 0.0, 0)] + [(0, 0, 0, 1.0, 0)] * 2 + [(0, 0, 0, 5.0, 0)] * 3, 1, 1
        )
        distinct, draw = resample_counts(augment_noisy_rewards(data, 0.25), data.n, 16)
        assert distinct.r.tolist() == [-0.25, 0.0, 0.25, 0.75, 1.0, 1.25, 4.75, 5.0, 5.25]
        c = np.repeat([1, 2, 3], 3)
        rows = draw(20_000)
        assert (rows.sum(axis=1) == data.n).all()
        p = c / (3 * data.n)
        se = np.sqrt(data.n * p * (1 - p) / len(rows))
        assert (np.abs(rows.mean(axis=0) - c / 3) < 5 * se).all()

    @staticmethod
    def grouping_pool(name):
        if name == "signed-zeros":
            return TupleDataset.from_tuples(
                [(0, 1, 0, -0.0, 1), (0, 1, 0, 2.0, 1), (0, 1, 0, 0.0, 1),
                 (1, 0, 1, 0.0, 0), (1, 0, 1, -0.0, 0), (0, 1, 0, 0.0, 1)], 2, 2,
            )
        if name == "bandit":
            mdp, count, horizon = make_bernoulli_bandit(0.5), 500, 1
        else:
            mdp, count, horizon = make_frozen_lake(), 200, 10_000
        policy = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
        data = tuples_from_episodes(sample_episodes(mdp, policy, count, horizon, rng_seed=17))
        return augment_noisy_rewards(data, 0.1) if name == "noisy-lake" else data

    @pytest.mark.parametrize("name", ["bandit", "lake", "noisy-lake", "signed-zeros"])
    def test_grouping_equals_three_unique_calls(self, name):
        pool = self.grouping_pool(name)
        distinct, draw = resample_counts(pool, 25, 18)
        ref_distinct, ref_draw = unique_resample_counts(pool, 25, 18)
        assert tuple_digest(distinct) == tuple_digest(ref_distinct)
        assert np.array_equal(draw(64), ref_draw(64))

    def test_signed_zero_rewards_are_one_tuple(self):
        distinct, draw = resample_counts(self.grouping_pool("signed-zeros"), 6000, 19)
        # each group keeps its first occurrence's bits: -0.0 at (0, 1, 0), 0.0 at (1, 0, 1)
        assert distinct.r.tolist() == [-0.0, 2.0, 0.0]
        assert np.signbit(distinct.r).tolist() == [True, False, False]
        # multiplicities 3, 1, 2 of the 6 tuples
        assert np.abs(draw(1)[0] / 6000 - [0.5, 1 / 6, 1 / 3]).max() < 0.03

    def test_unsupported_data_rejected(self):
        with pytest.raises(ValidationError, match="cannot resample a list"):
            bootstrap_replicas([1.0, 2.0], 2, 0)
        with pytest.raises(ValidationError, match="cannot resample an empty dataset"):
            bootstrap_replicas(np.array([]), 2, 0)
        # tuple data is resampled only by counts, through the DM bootstrap
        data = single_tuple_dataset()
        with pytest.raises(ValidationError, match="cannot resample a TupleDataset"):
            bootstrap_replicas(data, 2, 0)

    # Value replicas draw n uniform indices each, DM replicas draw
    # multinomial counts over the distinct tuples, each from one generator
    # seeded (seed, label).  These digests of 64 replicas pin both schemes:
    # the replica mean differences of a value array, count draws for a tuple
    # dataset and an augmented dataset (a 75-tuple pool, 25 tuples per draw).
    GOLDEN_SEED = ("interval", 0, 12345, 10, 3, "dm-boot")
    GOLDEN = {
        "values": "31874fbdf3c23aa73813f0f84454dcfc0d54c82a658cf2c62fda9e978221dd35",
        "tuples-counts": "8d131dcb14c34159d716b12cbde263b426abc0da59c1b7e001e3dce50c89f37d",
        "augmented-counts": "5649f7d16f0bed00d1c06db8bf32e13f719ce478c3890866a8cbde023b32b00f",
    }

    def test_draw_scheme_pinned(self):
        _, diffs = bootstrap_replicas(np.linspace(-1.0, 1.0, 37), 64, self.GOLDEN_SEED)
        values_bytes = np.ascontiguousarray(diffs, dtype="<f8").tobytes()
        assert hashlib.sha256(values_bytes).hexdigest() == self.GOLDEN["values"]
        data = sample_tuples(make_random_mdp(4, 2, 0.9, rng_seed=3), 25, rng_seed=4)
        for name, case in (("tuples", data), ("augmented", augment_noisy_rewards(data, 0.5))):
            _, draw = resample_counts(case, data.n, self.GOLDEN_SEED)
            counts = draw(64)
            assert (counts.sum(axis=1) == 25).all()
            assert draws_digest(counts) == self.GOLDEN[name + "-counts"], name


def tuple_digest(data):
    h = hashlib.sha256()
    for col, dtype in (
        (data.s0, "<i8"), (data.s, "<i8"), (data.a, "<i8"), (data.r, "<f8"), (data.sp, "<i8")
    ):
        h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return h.hexdigest()


class TestSampleTuples:
    def test_shared_generator_advances_by_exactly_its_draws(self):
        # Gradient checks pass one Generator across cases, so sample_tuples
        # must leave it where it always has: pinned values of the next draws.
        rng = np.random.default_rng(3)
        sample_tuples(make_random_mdp(4, 3, 0.9, rng_seed=5), 50, rng)
        assert rng.random(2).tolist() == [0.7859107915662121, 0.4802251364085529]

    def test_golden_hash_random_mdp(self):
        # Three-point reward supports exercise the reward draw as well as s'.
        data = sample_tuples(make_random_mdp(6, 3, 0.9, rng_seed=1), 400, rng_seed=2)
        assert tuple_digest(data) == (
            "986a9848500d310b38a285150f1c91ee1d2d6be87ac80049c6a7823edaac1afb"
        )
