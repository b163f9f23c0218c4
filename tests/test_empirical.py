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
from opeci.empirical import resample_counts, resample_indices, sample_tuples
from opeci.mdp import make_random_mdp

from _oracles import episode_set


def single_tuple_dataset(r=1.0, num_states=3, num_actions=2):
    return TupleDataset.from_tuples([(0, 1, 0, r, 2)], num_states, num_actions)


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
        assert aug.view.n == 12
        assert sorted(set(aug.view.r.tolist())) == [-1.0, 0.0, 1.0]
        assert np.var(aug.view.r) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_noise_keeps_variance(self):
        data = TupleDataset.from_tuples([(0, 0, 0, float(v), 0) for v in (0, 2, 5)], 1, 1)
        aug = augment_noisy_rewards(data, 0.0)
        assert aug.view.n == 9
        assert np.var(aug.view.r) == pytest.approx(np.var(data.r), abs=1e-15)

    def test_variance_identity_by_enumeration(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 0.0, 0), (0, 0, 0, 2.0, 0)], 1, 1)
        aug = augment_noisy_rewards(data, 3.0)
        # rewards {0,2, 3,5, -3,-1}: mean 1, variance 7 = (2/3)*9 + 1
        assert np.var(aug.view.r) == pytest.approx(7.0, abs=1e-14)

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
            assert abs(np.var(aug.view.r) - expected) < 1e-12

    def test_reward_multiset(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0), (0, 0, 0, 4.0, 0)], 1, 1)
        aug = augment_noisy_rewards(data, 0.5)
        assert sorted(aug.view.r.tolist()) == [0.5, 1.0, 1.5, 3.5, 4.0, 4.5]


class TestNoiseScales:
    def test_sufficient_scale_values(self):
        assert sufficient_noise_scale(0.0, 0.5) == 0.0
        assert sufficient_noise_scale(1.0, 0.5) == pytest.approx(np.sqrt(1.5) * 2, abs=1e-12)
        assert sufficient_noise_scale(1.0, 0.999) == pytest.approx(1000 * np.sqrt(1.5), rel=1e-12)
        with pytest.raises(ValidationError):
            sufficient_noise_scale(1.0, 1.0)


def first_replica(data, rng_seed):
    """Replica 0 of ``data`` under ``rng_seed``."""
    pool, draws = resample_indices(data, rng_seed, 1)
    return pool[next(draws)]


def draws_digest(draws):
    h = hashlib.sha256()
    for idx in draws:
        h.update(np.ascontiguousarray(idx, dtype="<i8").tobytes())
    return h.hexdigest()


class TestResampling:
    def test_singleton_dataset_resamples_to_itself(self):
        data = single_tuple_dataset()
        out = first_replica(data, rng_seed=0)
        assert out.n == 1
        assert out.tuple_at(0) == data.tuple_at(0)

    def test_same_seed_identical(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=8)
        data = sample_tuples(mdp, 50, rng_seed=9)
        a = first_replica(data, rng_seed=10)
        b = first_replica(data, rng_seed=10)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.s, b.s)

    def test_support_preserved(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=11)
        data = sample_tuples(mdp, 30, rng_seed=12)
        out = first_replica(data, rng_seed=13)
        originals = {data.tuple_at(i) for i in range(data.n)}
        assert all(out.tuple_at(i) in originals for i in range(out.n))

    @staticmethod
    def distinct_rewards(n):
        return TupleDataset(
            np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            np.arange(n, dtype=float), np.zeros(n, dtype=int), 1, 1,
        )

    @staticmethod
    def assert_binomial_multiplicities(multiplicity):
        # each of n distinct tuples is drawn Binomial(n, 1/n) times
        n, max_k = len(multiplicity), 6
        observed = np.bincount(np.minimum(multiplicity, max_k), minlength=max_k + 1)
        pmf = stats.binom.pmf(np.arange(max_k), n, 1.0 / n)
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_multiplicities_match_binomial(self):
        n = 10_000
        out = first_replica(self.distinct_rewards(n), rng_seed=14)
        self.assert_binomial_multiplicities(np.bincount(out.r.astype(int), minlength=n))

    def test_count_rows_match_binomial(self):
        n = 10_000
        distinct, draw = resample_counts(self.distinct_rewards(n), 14)
        assert distinct.n == n
        row = draw(1)[0]
        assert row.sum() == n
        self.assert_binomial_multiplicities(row)

    def test_augmented_counts_give_each_variant_its_mass(self):
        # base multiplicities c = 1, 2, 3: each of a tuple's three reward variants
        # is drawn with probability c / (3n), so n * c / (3n) = c / 3 times on average
        data = TupleDataset.from_tuples(
            [(0, 0, 0, 0.0, 0)] + [(0, 0, 0, 1.0, 0)] * 2 + [(0, 0, 0, 5.0, 0)] * 3, 1, 1
        )
        distinct, draw = resample_counts(augment_noisy_rewards(data, 0.25), 16)
        assert distinct.r.tolist() == [-0.25, 0.0, 0.25, 0.75, 1.0, 1.25, 4.75, 5.0, 5.25]
        c = np.repeat([1, 2, 3], 3)
        rows = draw(20_000)
        assert (rows.sum(axis=1) == data.n).all()
        p = c / (3 * data.n)
        se = np.sqrt(data.n * p * (1 - p) / len(rows))
        assert (np.abs(rows.mean(axis=0) - c / 3) < 5 * se).all()

    def test_augmented_pool_three_n_output_n(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 0.0, 0)] * 8, 1, 1)
        aug = augment_noisy_rewards(data, 1.0)
        out = first_replica(aug, rng_seed=15)
        assert out.n == 8
        assert set(out.r.tolist()) <= {-1.0, 0.0, 1.0}

    def test_unsupported_data_rejected(self):
        with pytest.raises(ValidationError, match="cannot resample a list"):
            resample_indices([1.0, 2.0], 0, 1)
        with pytest.raises(ValidationError, match="cannot resample an empty dataset"):
            resample_indices(np.array([]), 0, 1)

    # Value replicas draw n uniform pool indices each, DM replicas draw
    # multinomial counts over the distinct tuples, each from one generator
    # seeded (seed, label).  These digests of 64 replicas pin both schemes
    # for value arrays, tuple datasets and augmented datasets (a 75-tuple
    # pool, 25 tuples per draw).
    GOLDEN_SEED = ("interval", 0, 12345, 10, 3, "dm-boot")
    GOLDEN = {
        "values": "44b0c6db05c3e1dc928b447880cc17152a1fdf95a18c1069156c122729402d51",
        "tuples": "2a6f6534a625bd2828bcc323dbde7b77e3f6153ac1e1e6627adf6734435a5bf6",
        "augmented": "acdafc45e47d3aacc9047ebe35db09005f1400728d359de84a0b196fd4024bc4",
        "tuples-counts": "8d131dcb14c34159d716b12cbde263b426abc0da59c1b7e001e3dce50c89f37d",
        "augmented-counts": "5649f7d16f0bed00d1c06db8bf32e13f719ce478c3890866a8cbde023b32b00f",
    }

    def test_draw_scheme_pinned(self):
        data = sample_tuples(make_random_mdp(4, 2, 0.9, rng_seed=3), 25, rng_seed=4)
        cases = {
            "values": np.linspace(-1.0, 1.0, 37),
            "tuples": data,
            "augmented": augment_noisy_rewards(data, 0.5),
        }
        for name, case in cases.items():
            pool, draws = resample_indices(case, self.GOLDEN_SEED, 64)
            draws = list(draws)
            assert {len(idx) for idx in draws} == {25 if name != "values" else 37}
            assert max(idx.max() for idx in draws) < len(pool)
            assert draws_digest(draws) == self.GOLDEN[name], name
            if name != "values":
                _, draw = resample_counts(case, self.GOLDEN_SEED)
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

    def test_golden_hash_lake_weighted_pairs(self):
        lake = make_frozen_lake()
        dist = np.arange(1.0, lake.num_states * lake.num_actions + 1).reshape(
            lake.num_states, lake.num_actions
        )
        data = sample_tuples(lake, 400, rng_seed=3, state_action_dist=dist)
        assert tuple_digest(data) == (
            "a123e3fa62f1082f1f7e24d434eb5bea5278bc96fa1a561c72c9188eb99e4a14"
        )
