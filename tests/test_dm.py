"""Direct-method value: linear-solve and Q-evaluation routes."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from opeci import (
    Policy,
    PriorSpec,
    TupleDataset,
    build_empirical_model,
    dm_q,
    dm_value,
    empirical_on_policy_distribution,
    exact_policy_value,
    make_frozen_lake,
    make_random_mdp,
    make_random_policy,
    on_policy_distribution,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    q_values,
    sample_episodes,
    tuples_from_episodes,
    uniform_policy,
)
from opeci import solvers
from opeci.dm import dm_bootstrap_replicas, merge_off_support, support_slots
from opeci.empirical import augment_noisy_rewards, resample_counts, sample_tuples
from opeci.mdp import make_bernoulli_bandit
from opeci.errors import SolverError, ValidationError

from _oracles import (
    bootstrap_chunk, chunks_tabled, dm_value_via_qe, fixed_point, full_table_replicas,
    loop_replicas, merged_per_tuple, qe_fixed_point,
)


def exhaustive_model(mdp, kappa=0.0):
    """Weighted dataset whose empirical frequencies equal the true MDP."""
    tuples, weights = [], []
    S, A = mdp.num_states, mdp.num_actions
    for s in range(S):
        for a in range(A):
            for value, prob in mdp.rewards[s][a]:
                for sp in range(S):
                    for s0 in range(S):
                        w = prob * mdp.transitions[s, a, sp] * mdp.initial_dist[s0] / (S * A)
                        if w > 0:
                            tuples.append((s0, s, a, value, sp))
                            weights.append(w)
    data = TupleDataset.from_tuples(tuples, S, A)
    return build_empirical_model(
        data, kappa=kappa, discount=mdp.discount, weights=np.array(weights)
    )


def zero_data_model(num_states=3, num_actions=2, discount=0.8):
    """Model whose every pair is effectively unvisited (one zero-weight path
    is impossible, so use a single tuple and kappa large enough to swamp it)."""
    data = TupleDataset.from_tuples([(0, 0, 0, 0.0, 0)], num_states, num_actions)
    return build_empirical_model(data, kappa=1e12, discount=discount)


class TestDmValue:
    def test_exhaustive_data_matches_exact(self):
        mdp = make_random_mdp(4, 2, 0.85, rng_seed=1)
        policy = make_random_policy(4, 2, rng_seed=2)
        model = exhaustive_model(mdp)
        assert abs(dm_value(model, policy) - exact_policy_value(mdp, policy)) < 1e-9

    def test_zero_reward_priors_give_zero(self):
        model = zero_data_model()
        assert dm_value(model, uniform_policy(3, 2)) == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_qe_on_lake_sample(self):
        mdp = make_frozen_lake(discount=0.95)
        behavior = perturb_policy_epsilon_greedy(optimal_policy(mdp), 0.2)
        eps = sample_episodes(mdp, behavior, 50, 200, rng_seed=3)
        model = build_empirical_model(tuples_from_episodes(eps), discount=0.95)
        target = optimal_policy(mdp)
        assert abs(dm_value(model, target) - dm_value_via_qe(model, target, 1e-12)) < 1e-8

    def test_dimension_mismatch(self):
        model = zero_data_model()
        with pytest.raises(ValidationError):
            dm_value(model, uniform_policy(4, 4))

    def test_bounded_by_reward_scale(self):
        for i in range(20):
            mdp = make_random_mdp(4, 3, 0.9, rng_seed=i)
            data = sample_tuples(mdp, 60, rng_seed=100 + i)
            model = build_empirical_model(data, kappa=0.1 * (i % 4), discount=0.9)
            policy = make_random_policy(4, 3, rng_seed=200 + i)
            assert abs(dm_value(model, policy)) <= 1.0 + 1e-12  # r_max = 1

    def test_kappa_sweep_converges_to_prior_value(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=4)
        data = sample_tuples(mdp, 300, rng_seed=5)
        policy = make_random_policy(4, 2, rng_seed=6)
        priors = PriorSpec(reward_mean=0.5)
        prior_model = build_empirical_model(data, priors, kappa=1e15, discount=0.8)
        prior_value = dm_value(prior_model, policy)
        gaps = []
        for kappa in (1e3, 1e6, 1e9):
            model = build_empirical_model(data, priors, kappa=kappa, discount=0.8)
            gaps.append(abs(dm_value(model, policy) - prior_value))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8


class TestDmQ:
    def test_zero_prior_model_all_zero(self):
        q = dm_q(zero_data_model(), uniform_policy(3, 2))
        assert np.abs(q).max() < 1e-9

    def test_exhaustive_matches_true_q(self):
        mdp = make_random_mdp(4, 2, 0.85, rng_seed=7)
        policy = make_random_policy(4, 2, rng_seed=8)
        assert np.abs(dm_q(exhaustive_model(mdp), policy) - q_values(mdp, policy)).max() < 1e-9

    def test_bellman_identity_under_model(self):
        mdp = make_random_mdp(5, 2, 0.9, rng_seed=9)
        data = sample_tuples(mdp, 100, rng_seed=10)
        model = build_empirical_model(data, kappa=0.2, discount=0.9)
        policy = make_random_policy(5, 2, rng_seed=11)
        q = dm_q(model, policy)
        v = (policy.probs * q).sum(axis=1)
        backup = model.mean_reward + model.discount * model.transitions @ v
        assert np.abs(q - backup).max() < 1e-9

    def test_unvisited_pair_prior_identity(self):
        # at kappa=0, an unvisited pair obeys Q = prior_mean + g*E_prior[V]
        priors = PriorSpec(reward_mean=0.3)
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 1), (1, 1, 0, 0.5, 0)], 3, 2)
        model = build_empirical_model(data, priors, kappa=0.0, discount=0.7)
        policy = make_random_policy(3, 2, rng_seed=12)
        q = dm_q(model, policy)
        v = (policy.probs * q).sum(axis=1)
        _, prior_trans = priors.resolve(3, 2)
        for s in range(3):
            for a in range(2):
                if model.counts[s, a] == 0:
                    expected = 0.3 + 0.7 * (prior_trans[s, a] @ v)
                    assert q[s, a] == pytest.approx(expected, abs=1e-9)

    def test_value_consistency(self):
        mdp = make_random_mdp(4, 2, 0.9, rng_seed=13)
        data = sample_tuples(mdp, 80, rng_seed=14)
        model = build_empirical_model(data, kappa=0.1, discount=0.9)
        policy = make_random_policy(4, 2, rng_seed=15)
        q = dm_q(model, policy)
        p0 = (model.initial_dist[:, None] * policy.probs).reshape(-1)
        assert abs((1 - 0.9) * (p0 @ q.reshape(-1)) - dm_value(model, policy)) < 1e-9


class TestQePath:
    def test_discount_zero_converges_immediately_to_mean_rewards(self):
        mdp = make_random_mdp(3, 2, 0.0, rng_seed=16)
        data = sample_tuples(mdp, 50, rng_seed=17)
        model = build_empirical_model(data, discount=0.0)
        policy = make_random_policy(3, 2, rng_seed=18)
        q, iterations = qe_fixed_point(model, policy, 1e-12)
        assert np.array_equal(q, model.mean_reward)
        assert iterations <= 2  # the first backup lands; the second detects it

    def test_qe_equals_mb_on_random_models(self):
        worst = 0.0
        for i in range(100):
            mdp = make_random_mdp(4, 2, 0.2 + 0.007 * i, rng_seed=1000 + i)
            data = sample_tuples(mdp, 120, rng_seed=2000 + i)
            model = build_empirical_model(data, kappa=0.05 * (i % 3), discount=mdp.discount)
            policy = make_random_policy(4, 2, rng_seed=3000 + i)
            gap = abs(dm_value(model, policy) - dm_value_via_qe(model, policy, 1e-12))
            assert gap <= 10 * 1e-12 / (1 - model.discount)
            worst = max(worst, gap)
        assert worst < 1e-8

    def test_iteration_count_contraction_bound(self):
        # zero reward priors start the iteration at Q=0, so the first change
        # is at most r_max and the count obeys the contraction bound
        tolerance = 1e-10
        for i in range(10):
            gamma = 0.3 + 0.06 * i
            mdp = make_random_mdp(4, 2, gamma, rng_seed=4000 + i)
            data = sample_tuples(mdp, 100, rng_seed=5000 + i)
            model = build_empirical_model(data, discount=gamma)
            policy = make_random_policy(4, 2, rng_seed=6000 + i)
            _, iterations = qe_fixed_point(model, policy, tolerance)
            bound = math.ceil(math.log(tolerance * (1 - gamma)) / math.log(gamma)) + 1
            assert iterations <= bound

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            qe_fixed_point(zero_data_model(), uniform_policy(3, 2), tolerance=0.0)


class TestEmpiricalOnPolicyDistribution:
    def test_exhaustive_matches_true(self):
        mdp = make_random_mdp(4, 2, 0.8, rng_seed=19)
        policy = make_random_policy(4, 2, rng_seed=20)
        got = empirical_on_policy_distribution(exhaustive_model(mdp), policy)
        assert np.abs(got - on_policy_distribution(mdp, policy)).max() < 1e-9

    def test_inner_product_with_rewards_is_value(self):
        mdp = make_random_mdp(5, 2, 0.9, rng_seed=21)
        data = sample_tuples(mdp, 90, rng_seed=22)
        model = build_empirical_model(data, kappa=0.3, discount=0.9)
        policy = make_random_policy(5, 2, rng_seed=23)
        dist = empirical_on_policy_distribution(model, policy)
        assert abs((dist * model.mean_reward).sum() - dm_value(model, policy)) < 1e-9

    def test_single_state_mass(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0)], 1, 1)
        model = build_empirical_model(data, discount=0.5)
        dist = empirical_on_policy_distribution(model, uniform_policy(1, 1))
        assert dist[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_normalized_and_nonnegative(self):
        mdp = make_random_mdp(6, 2, 0.95, rng_seed=24)
        data = sample_tuples(mdp, 70, rng_seed=25)
        model = build_empirical_model(data, kappa=0.01, discount=0.95)
        dist = empirical_on_policy_distribution(model, make_random_policy(6, 2, rng_seed=26))
        assert abs(dist.sum() - 1.0) < 1e-10
        assert (dist >= 0).all()


def random_mdp_case():
    mdp = make_random_mdp(12, 3, 0.9, rng_seed=30)
    return sample_tuples(mdp, 150, rng_seed=31), make_random_policy(12, 3, rng_seed=32)


def lake_case():
    lake = make_frozen_lake()
    target = optimal_policy(lake)
    behavior = perturb_policy_epsilon_greedy(target, 0.2)
    episodes = sample_episodes(lake, behavior, 15, 10_000, rng_seed=33)
    return tuples_from_episodes(episodes), target


class TestDmBootstrapReplicas:
    @pytest.mark.parametrize("case", [random_mdp_case, lake_case])
    @pytest.mark.parametrize("gamma", [0.0, 0.9, 0.999])
    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_equals_per_replica_loop(self, case, gamma, kappa, noisy):
        data, policy = case()
        pool = augment_noisy_rewards(data, 0.25 * float(np.std(data.r))) if noisy else data
        # more than one chunk, the last one partial
        b = bootstrap_chunk(pool, data.n, policy, ("eq", 1)) + 7
        (point, diffs), chunks = chunks_tabled(
            pool, policy, b, ("eq", 1), kappa=kappa, discount=gamma, n=data.n
        )
        assert chunks == 2
        ref_point, ref_diffs = loop_replicas(pool, data.n, policy, b, ("eq", 1), kappa, gamma)
        assert point == ref_point
        assert np.abs(diffs - ref_diffs).max() <= 1e-12

    # sha256 of the point estimate and b=1000 replica differences on plain
    # 0/1-reward data; they pin the multinomial count draws with the seed
    # (seed, "multinomial") over the merged distinct tuples together with the
    # tables and the stacked solve, on episodes from the lockstep sampler.
    # The bandit's target takes both actions, so it merges nothing.
    GOLDEN = {
        ("lake10", 0.0): "635119d4d4e08b3c381e3b4e624ab1c4c1e98aa58c803ab1f66c051da5eefb76",
        ("lake10", 0.05): "5512307461515e23bca6fd1d76544d883145c70119bb4c29191ce2348b592261",
        ("lake200", 0.0): "ee46c0dab0e538517e2057df75462b1e85e8ac3dda9704fb6470a9872f4a1490",
        ("lake200", 0.05): "8473e83d71985de0cd9b68e2c31fd9dcdd81871d5c8e91e66fbc67d7a5a6f468",
        ("bandit", 0.0): "198e4ee11428bab0df28901b4c6f44a3ad2060451a68b6aa722a6b3ad7f97389",
        ("bandit", 0.05): "20e3006d0b230efbecc25cf4da34a11407389814b3eb167320ec40884459f6ed",
    }

    # The same digests for dm-noisy-boot replicas: n tuples resampled from the
    # 3n-tuple pool that noise scale 0.25 * std(r) augments, as the harness does.
    NOISY_GOLDEN = {
        ("lake10", 0.0): "39f0ed1bc4bd3e7ea7d6c688953e55080e9fe17df5ead37b0f73c5e4bf506815",
        ("lake10", 0.05): "b5d86f58ad66af2f4940f99e98d2c31d7e009c1b9d54b10c066ef92e5d4cd82e",
        ("lake200", 0.0): "6fcc60bb666b8251bc9c8e63827bc8ca7adb184f9b36b099383d67386f75551c",
        ("lake200", 0.05): "475e581f0776ebfd85af99de7caddda5323da934be6ae2700ee1ec2532d8419a",
        ("bandit", 0.0): "03e8d1450b981177610bacf221b2c9d58fa5f17d81c95e24b7e8b744db80aa46",
        ("bandit", 0.05): "fd3cdb9169785c569f49cebc9008729d2beccfd220ef6b467f7aab9a5a9193bd",
    }

    @staticmethod
    def replica_digest(name, kappa, noisy):
        if name == "bandit":
            mdp, n, horizon = make_bernoulli_bandit(0.5).with_discount(0.0), 500, 1
        else:
            mdp, n, horizon = make_frozen_lake(discount=0.999), int(name[4:]), 10_000
        target = optimal_policy(mdp)
        behavior = perturb_policy_epsilon_greedy(target, 0.2)
        episodes = sample_episodes(mdp, behavior, n, horizon, rng_seed=("golden", name))
        data = tuples_from_episodes(episodes)
        pool = augment_noisy_rewards(data, 0.25 * float(np.std(data.r))) if noisy else data
        point, diffs = dm_bootstrap_replicas(
            pool, target, 1000, ("golden", name, kappa),
            kappa=kappa, discount=mdp.discount, n=data.n,
        )
        return hashlib.sha256(np.float64(point).tobytes() + diffs.tobytes()).hexdigest()

    @pytest.mark.parametrize("name, kappa", sorted(GOLDEN))
    def test_replicas_pinned(self, name, kappa):
        assert self.replica_digest(name, kappa, noisy=False) == self.GOLDEN[(name, kappa)]

    @pytest.mark.parametrize("name, kappa", sorted(NOISY_GOLDEN))
    def test_noisy_replicas_pinned(self, name, kappa):
        assert self.replica_digest(name, kappa, noisy=True) == self.NOISY_GOLDEN[(name, kappa)]

    def test_chunking_cannot_change_results(self):
        data, policy = lake_case()
        chunk = bootstrap_chunk(data, data.n, policy, 5)
        small, small_chunks = chunks_tabled(
            data, policy, chunk + 3, 5, kappa=0.0, discount=0.999, n=data.n
        )
        large, large_chunks = chunks_tabled(
            data, policy, 3 * chunk, 5, kappa=0.0, discount=0.999, n=data.n
        )
        assert (small_chunks, large_chunks) == (2, 3)
        assert small[0] == large[0]
        assert np.array_equal(small[1], large[1][: chunk + 3])

    # Support widths 1, 2 and 3 with a zero between two supported actions;
    # then widths 1 and 2 only, so the tables keep 2 of the 3 action columns.
    PARTIAL_TARGETS = {
        "mixed": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.2, 0.3, 0.5], [0.0, 1.0, 0.0]],
        "narrow": [[0.0, 0.0, 1.0], [0.4, 0.0, 0.6], [0.0, 1.0, 0.0], [0.7, 0.3, 0.0]],
    }

    @pytest.mark.parametrize("target", sorted(PARTIAL_TARGETS))
    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_partial_support_equals_full_tables(self, target, kappa, noisy):
        # (s, a) is drawn uniformly, so the data visits every pair off the support
        data = sample_tuples(make_random_mdp(4, 3, 0.9, rng_seed=50), 120, rng_seed=51)
        pool = augment_noisy_rewards(data, 0.25 * float(np.std(data.r))) if noisy else data
        policy = Policy(np.array(self.PARTIAL_TARGETS[target]))
        b = bootstrap_chunk(pool, data.n, policy, 52) + 7
        (point, diffs), chunks = chunks_tabled(
            pool, policy, b, 52, kappa=kappa, discount=0.9, n=data.n
        )
        assert chunks == 2
        ref_point, ref_diffs = full_table_replicas(pool, data.n, policy, b, 52, kappa, 0.9)
        assert point == ref_point
        assert np.array_equal(diffs, ref_diffs)

    def test_support_slots(self):
        slots, probs = support_slots(np.array(self.PARTIAL_TARGETS["narrow"]))
        assert slots.tolist() == [[-1, -1, 0], [0, -1, 1], [-1, 0, -1], [0, 1, -1]]
        assert probs.tolist() == [[1.0, 0.0], [0.4, 0.6], [1.0, 0.0], [0.7, 0.3]]
        full = np.full((2, 3), 1 / 3)
        slots, probs = support_slots(full)
        assert slots.tolist() == [[0, 1, 2], [0, 1, 2]]
        assert np.array_equal(probs, full)

    @pytest.mark.parametrize("target", sorted(PARTIAL_TARGETS) + ["full"])
    def test_merge_equals_per_tuple_loop(self, target):
        data = sample_tuples(make_random_mdp(4, 3, 0.9, rng_seed=50), 120, rng_seed=51)
        probs = np.full((4, 3), 1 / 3) if target == "full" else self.PARTIAL_TARGETS[target]
        policy = Policy(np.array(probs))
        merged = merge_off_support(data, support_slots(policy.probs)[0])
        reference = merged_per_tuple(data, policy)
        for name in ("s0", "s", "a", "r", "sp"):
            assert np.array_equal(getattr(merged, name), getattr(reference, name)), name
        assert (merged is data) == (target == "full")

    def test_merged_count_has_law_of_summed_off_support_counts(self):
        # The target takes action 0 only; seven of the ten tuples sit at action 1,
        # from both start states, one of them twice.
        pool = TupleDataset.from_tuples(
            [(0, 0, 0, 1.0, 1), (1, 0, 0, 0.0, 0), (1, 1, 0, 0.5, 1),
             (0, 0, 1, 1.0, 0), (0, 1, 1, 0.0, 1), (0, 1, 1, 0.0, 1), (1, 0, 1, 1.0, 1),
             (1, 1, 1, 0.5, 0), (1, 0, 1, 0.0, 0), (0, 1, 1, 1.0, 0)],
            2, 2,
        )
        policy, n, m = Policy(np.array([[1.0, 0.0], [1.0, 0.0]])), 6, 20_000
        merged = merge_off_support(pool, support_slots(policy.probs)[0])
        distinct, draw = resample_counts(merged, n, 60)
        off = policy.probs[distinct.s, distinct.a] == 0
        assert distinct.s0[off].tolist() == [0, 1]  # one merged tuple per start state
        merged_counts = draw(m)[:, off]
        full, full_draw = resample_counts(pool, n, 61)
        full_off, full_counts = policy.probs[full.s, full.a] == 0, full_draw(m)
        summed = np.stack([full_counts[:, full_off & (full.s0 == s0)].sum(axis=1)
                           for s0 in (0, 1)], axis=1)
        # Both are (off at s0=0, off at s0=1, the rest) ~ multinomial(6; 4/10, 3/10, 3/10).
        law = [(k0, k1, stats.multinomial.pmf([k0, k1, n - k0 - k1], n, [0.4, 0.3, 0.3]))
               for k0 in range(n + 1) for k1 in range(n + 1 - k0)]
        for counts in (merged_counts, summed):
            observed = np.array([np.sum((counts[:, 0] == k0) & (counts[:, 1] == k1))
                                 for k0, k1, _ in law])
            expected = m * np.array([p for _, _, p in law])
            assert stats.chisquare(observed, expected).pvalue > 1e-3

    # Old scheme (counts over the pool's own distinct tuples, through the oracle)
    # against the merged one, on criterion-8 lake data.  20,000 replicas a side;
    # the seeds and the p > 0.001 threshold were fixed before the first run.
    @pytest.mark.parametrize("episodes", [10, 50])
    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_merged_replicas_have_the_law_of_unmerged(self, episodes, kappa, noisy):
        lake = make_frozen_lake(discount=0.999)
        target = optimal_policy(lake)
        behavior = perturb_policy_epsilon_greedy(target, 0.2)
        data = tuples_from_episodes(
            sample_episodes(lake, behavior, episodes, 10_000, rng_seed=("ks", episodes))
        )
        pool = augment_noisy_rewards(data, 0.25 * float(np.std(data.r))) if noisy else data
        seed = ("ks", episodes, kappa, noisy)
        point, new = dm_bootstrap_replicas(
            pool, target, 20_000, seed + ("new",), kappa=kappa, discount=0.999, n=data.n
        )
        old = np.concatenate([
            full_table_replicas(pool, data.n, target, 1000, seed + ("old", k), kappa, 0.999,
                                merged=False)[1]
            for k in range(20)
        ])
        assert stats.ks_2samp(new, old).pvalue > 1e-3

    def test_off_support_rewards_never_read(self):
        # The target never takes action 1.  A replica that draws its reward 1e308
        # twice overflows that pair's reward sum; full tables then multiplied the
        # inf by pi = 0 and named the replica non-finite.  The support tables
        # never read the pair, so the replicas are those of tame rewards there.
        def pool(big):
            return TupleDataset.from_tuples(
                [(0, 0, 0, 1.0, 0), (0, 0, 0, 0.0, 0), (0, 0, 1, big, 0), (0, 0, 1, -big, 0)],
                1, 2,
            )

        target = Policy(np.array([[1.0, 0.0]]))
        huge = dm_bootstrap_replicas(pool(1e308), target, 100, 9, kappa=0.0, discount=0.5, n=4)
        tame = dm_bootstrap_replicas(pool(1.0), target, 100, 9, kappa=0.0, discount=0.5, n=4)
        assert np.isfinite(huge[1]).all()
        assert huge[0] == tame[0] and np.array_equal(huge[1], tame[1])

    def test_non_finite_replica_named(self):
        # the two rewards cancel in the original data; a replica drawing one twice overflows
        data = TupleDataset.from_tuples([(0, 0, 0, 1e308, 0), (0, 0, 0, -1e308, 0)], 1, 1)
        _, draw = resample_counts(data, 2, 9)
        first = next(k for k, row in enumerate(draw(100)) if np.count_nonzero(row) == 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match=f"bootstrap replica {first} is not finite"):
                dm_bootstrap_replicas(
                    data, uniform_policy(1, 1), 100, 9, kappa=0.0, discount=0.0, n=2
                )

    def test_argument_validation(self):
        data, policy = random_mdp_case()
        with pytest.raises(ValidationError):
            dm_bootstrap_replicas(data, policy, 1, 0, kappa=0.0, discount=0.9, n=data.n)
        with pytest.raises(ValidationError):
            dm_bootstrap_replicas(
                data, uniform_policy(3, 3), 10, 0, kappa=0.0, discount=0.9, n=data.n
            )

    @pytest.mark.parametrize("n", [0, -3, 150.0, True])
    def test_resample_size_must_be_positive_integer(self, n):
        data, policy = random_mdp_case()
        with pytest.raises(ValidationError, match="resample size n"):
            resample_counts(data, n, 0)
        with pytest.raises(ValidationError, match="resample size n"):
            dm_bootstrap_replicas(data, policy, 10, 0, kappa=0.0, discount=0.9, n=n)


class TestStackedSolves:
    def stack(self, count=3):
        models = [
            build_empirical_model(
                sample_tuples(make_random_mdp(5, 2, 0.95, rng_seed=40), 60, rng_seed=41 + i),
                kappa=0.1, discount=0.95,
            )
            for i in range(count)
        ]
        rewards = np.stack([m.mean_reward for m in models])
        transitions = np.stack([m.transitions for m in models])
        initial = np.stack([m.initial_dist for m in models])
        return models, rewards, transitions, initial

    def test_stack_matches_single_solves(self):
        models, rewards, transitions, initial = self.stack()
        policy = make_random_policy(5, 2, rng_seed=45)
        values = solvers.policy_value(rewards, transitions, initial, policy.probs, 0.95)
        q = solvers.q_table(rewards, transitions, policy.probs, 0.95)
        dist = solvers.on_policy_distribution_table(transitions, initial, policy.probs, 0.95)
        for i, model in enumerate(models):
            assert values[i] == dm_value(model, policy)
            assert np.array_equal(q[i], dm_q(model, policy))
            assert np.array_equal(dist[i], empirical_on_policy_distribution(model, policy))

    def test_nan_residual_of_finite_system_raises(self):
        # Finite inputs whose values overflow to +-inf: 0 * inf in the
        # residual's product makes it NaN, which no comparison exceeds.
        rewards = np.array([[1e308], [-1e308]])
        transitions = np.eye(2)[:, None, :]  # two absorbing states
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="residual nan"):
                solvers.policy_value(rewards, transitions, np.array([0.5, 0.5]),
                                     np.ones((2, 1)), 0.99)

    def test_fixed_point_counts_backups_and_names_a_stall(self):
        x, backups = fixed_point(lambda x: 0.5 * x, np.array([1.0]), 0.1, 10, "halving")
        assert backups == 4 and x[0] == 0.0625  # the fourth backup moves x by 0.0625
        with pytest.raises(SolverError, match="NaN map did not converge to 1.0e-01 within 3"):
            fixed_point(lambda x: x * np.nan, np.array([1.0]), 0.1, 3, "NaN map")


def test_dm_names_are_the_model_evaluators():
    # One evaluator per quantity serves true and empirical models alike.
    assert dm_value is exact_policy_value and dm_q is q_values
    assert empirical_on_policy_distribution is on_policy_distribution
