"""Importance-sampling estimators and concentration intervals."""

import math

import numpy as np
import pytest
from scipy import stats  # the oracle for student_t_interval; opeci must not import it

from opeci import (
    PerEpisodeEstimates,
    Policy,
    TabularMdp,
    ValidationError,
    build_empirical_model,
    dr_estimate,
    empirical_bernstein_interval,
    exact_policy_value,
    hoeffding_interval,
    make_frozen_lake,
    method_intervals,
    optimal_policy,
    per_decision_is,
    perturb_policy_epsilon_greedy,
    q_values,
    sample_episodes,
    student_t_interval,
    tuples_from_episodes,
    uniform_policy,
)
from opeci import solvers
from opeci.mdp import Episode, Step, make_random_mdp

from _oracles import episode_set, normalized_return, range_bounds, recursive_estimate


def two_armed_bandit(r0=1.0, r1=0.0):
    """Single-state bandit with deterministic per-arm rewards, discount 0."""
    return TabularMdp(
        1, 2, np.ones((1, 2, 1)),
        [[((r0, 1.0),), ((r1, 1.0),)]],
        np.ones(1), 0.0,
    )


def lake_setup(discount=0.95, epsilon=0.2):
    mdp = make_frozen_lake(discount=discount)
    target = optimal_policy(mdp)
    behavior = perturb_policy_epsilon_greedy(target, epsilon)
    return mdp, target, behavior


class TestPerDecisionIs:
    def test_identity_ratios_reduce_to_plain_return(self):
        mdp, _, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 40, 300, rng_seed=1)
        est = per_decision_is(eps, behavior, 0.95)
        plain = np.array([normalized_return(e, 0.95) for e in eps.episodes])
        assert np.abs(est.values - plain).max() == 0.0

    def test_single_step_double_mass(self):
        # behavior picks each arm half the time; target doubles the taken mass
        bandit = two_armed_bandit(r0=1.0, r1=0.5)
        behavior = uniform_policy(1, 2)
        eps = sample_episodes(bandit, behavior, 200, 1, rng_seed=2)
        target = Policy(np.array([[1.0, 0.0]]))
        est = per_decision_is(eps, target, 0.0)
        for ep, value in zip(eps.episodes, est.values):
            step = ep.steps[0]
            expected = (2.0 * step.reward) if step.action == 0 else 0.0
            assert value == pytest.approx(expected, abs=1e-15)

    def test_unbiased_against_exact_value(self):
        mdp, target, behavior = lake_setup(discount=0.95)
        eps = sample_episodes(mdp, behavior, 100_000, 500, rng_seed=3)
        est = per_decision_is(eps, target, 0.95)
        exact = exact_policy_value(mdp, target)
        se = est.values.std(ddof=1) / math.sqrt(est.m)
        assert abs(est.mean - exact) < 3 * se

    def test_values_respect_range_bound(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 300, 300, rng_seed=4)
        est = per_decision_is(eps, target, 0.95)
        assert np.abs(est.values).max() <= est.range_bound + 1e-12

    def test_zero_behavior_prob_rejected(self):
        ep = Episode(0, (Step(0, 0, 1.0, 0, 0.0, False),))
        with pytest.raises(ValidationError):
            per_decision_is(episode_set((ep,), 1, 1), uniform_policy(1, 1), 0.5)

    @pytest.mark.parametrize("estimator", ["pdis", "dr"])
    def test_wrong_target_shape_rejected(self, estimator):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 5, 50, rng_seed=5)
        wrong = uniform_policy(mdp.num_states + 1, mdp.num_actions)
        with pytest.raises(ValidationError, match="shape"):
            if estimator == "pdis":
                per_decision_is(eps, wrong, 0.95)
            else:
                model = build_empirical_model(tuples_from_episodes(eps), discount=0.95)
                dr_estimate(eps, wrong, model, 0.95)


def hand_built_set():
    """Two states, two actions; one episode has no steps."""
    steps = (
        Step(0, 1, 0.5, 1, 0.25, False),
        Step(1, 0, -1.0, 1, 0.6, False),
        Step(1, 1, 2.0, 0, 0.4, True),
    )
    episodes = (Episode(0, steps), Episode(1, ()), Episode(1, steps[1:2]), Episode(0, steps[:1]))
    return episode_set(episodes, 2, 2)


class TestRecursionOracle:
    """The flat-column sweep equals the scalar per-step recursion bit for bit."""

    @pytest.mark.parametrize("case", ["lake-ragged", "hand-built-empty-episode"])
    def test_values_and_range_bounds_equal_oracle(self, case):
        if case == "lake-ragged":
            model, target, behavior = lake_setup()
            eps = sample_episodes(model, behavior, 200, 300, rng_seed=12)
            discount = 0.95
            assert len(set(eps.columns.lengths.tolist())) > 10
        else:
            eps = hand_built_set()
            target = Policy(np.array([[0.7, 0.3], [0.4, 0.6]]))
            discount = 0.9
            model = make_random_mdp(2, 2, discount, rng_seed=13)
        q = q_values(model, target)
        v = solvers.state_values(q, target.probs)
        pdis = per_decision_is(eps, target, discount)
        dr = dr_estimate(eps, target, model, discount)
        assert np.array_equal(
            pdis.values, [recursive_estimate(ep, target, discount) for ep in eps.episodes]
        )
        assert np.array_equal(
            dr.values, [recursive_estimate(ep, target, discount, q, v) for ep in eps.episodes]
        )
        assert (pdis.range_bound, dr.range_bound) == range_bounds(eps, target, discount, q, v)


class TestDoublyRobust:
    def test_zero_q_reduces_to_pdis_bitwise(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 50, 300, rng_seed=6)
        pdis = per_decision_is(eps, target, 0.95)
        # With every reward 0 the model's Q is exactly 0.
        rewards = [[((0.0, 1.0),)] * mdp.num_actions] * mdp.num_states
        zero = TabularMdp(mdp.num_states, mdp.num_actions, mdp.transitions, rewards,
                          mdp.initial_dist, 0.95, mdp.terminal_states)
        dr = dr_estimate(eps, target, zero, 0.95)
        assert not q_values(zero, target).any()
        assert np.array_equal(pdis.values, dr.values)

    def test_perfect_q_on_deterministic_bandit(self):
        # deterministic arms: the control variate cancels pointwise and every
        # per-episode value is exactly the target's value
        bandit = two_armed_bandit(r0=0.8, r1=0.2)
        behavior = uniform_policy(1, 2)
        target = Policy(np.array([[0.75, 0.25]]))
        eps = sample_episodes(bandit, behavior, 100, 1, rng_seed=7)
        dr = dr_estimate(eps, target, bandit, 0.0)
        rho = exact_policy_value(bandit, target)
        assert np.abs(dr.values - rho).max() < 1e-12

    def test_exact_q_lowers_variance_and_stays_unbiased(self):
        mdp, target, behavior = lake_setup(discount=0.95)
        eps = sample_episodes(mdp, behavior, 10_000, 500, rng_seed=8)
        dr = dr_estimate(eps, target, mdp, 0.95)
        pdis = per_decision_is(eps, target, 0.95)
        exact = exact_policy_value(mdp, target)
        se = dr.values.std(ddof=1) / math.sqrt(dr.m)
        assert abs(dr.values.mean() - exact) < 3 * se
        assert dr.values.var() <= pdis.values.var()


class TestConcentrationIntervals:
    def test_hoeffding_center_and_width(self):
        est = PerEpisodeEstimates(np.full(50, 3.0), 4.0)
        ci = hoeffding_interval(est, 0.1)
        half = 4.0 * math.sqrt(math.log(2 / 0.1) / (2 * 50))
        assert ci.point_estimate == 3.0
        assert ci.lower == pytest.approx(3.0 - half, abs=1e-12)
        assert ci.upper == pytest.approx(3.0 + half, abs=1e-12)

    def test_hoeffding_width_quarters_with_four_x_samples(self):
        small = PerEpisodeEstimates(np.zeros(25), 1.0)
        large = PerEpisodeEstimates(np.zeros(100), 1.0)
        assert hoeffding_interval(small, 0.05).width == pytest.approx(
            2 * hoeffding_interval(large, 0.05).width, abs=1e-12
        )

    def test_hoeffding_numeric_case(self):
        est = PerEpisodeEstimates(np.zeros(100), 1.0)
        half = hoeffding_interval(est, 0.05).width / 2
        assert half == pytest.approx(math.sqrt(math.log(40) / 200), abs=1e-12)
        assert half == pytest.approx(0.1358, abs=2e-4)

    def test_hoeffding_infinite_range_rejected(self):
        est = PerEpisodeEstimates(np.zeros(5), math.inf)
        with pytest.raises(ValidationError):
            hoeffding_interval(est, 0.1)

    def test_bernstein_zero_variance_width(self):
        est = PerEpisodeEstimates(np.full(30, 2.0), 5.0)
        ci = empirical_bernstein_interval(est, 0.1)
        expected_half = 7 * 5.0 * math.log(2 / 0.1) / (3 * 29)
        assert ci.width / 2 == pytest.approx(expected_half, abs=1e-12)

    def test_bernstein_close_to_hoeffding_at_worst_case_variance(self):
        # variance range^2/4 (values at +/- range/2) and large m: the variance
        # term equals Hoeffding's width and the range term is negligible
        m = 1_000_000
        values = np.tile([0.5, -0.5], m // 2)
        est = PerEpisodeEstimates(values, 1.0)
        bern = empirical_bernstein_interval(est, 0.05)
        hoef = hoeffding_interval(est, 0.05)
        assert bern.width <= 1.01 * hoef.width

    def test_bernstein_numeric_case(self):
        rng = np.random.default_rng(10)
        values = rng.choice([0.0, 1.0], size=100)
        est = PerEpisodeEstimates(values, 1.0)
        ci = empirical_bernstein_interval(est, 0.05)
        log_term = math.log(2 / 0.05)
        expected = math.sqrt(2 * values.var(ddof=1) * log_term / 100) + 7 * log_term / (3 * 99)
        assert ci.width / 2 == pytest.approx(expected, abs=1e-12)

    def test_student_t_two_sample_case(self):
        est = PerEpisodeEstimates(np.array([0.0, 2.0]), 10.0)
        ci = student_t_interval(est, 0.05)
        assert ci.point_estimate == 1.0
        assert ci.width / 2 == pytest.approx(12.7062, abs=1e-3)

    def test_student_t_zero_variance(self):
        est = PerEpisodeEstimates(np.full(10, 1.5), 2.0)
        ci = student_t_interval(est, 0.05)
        assert ci.lower == ci.upper == 1.5

    @pytest.mark.parametrize("alpha", [1e-9, 1e-3, 0.05, 0.1, 0.5, 0.9])
    def test_student_t_half_width_equals_scipy_stats_quantile(self, alpha):
        for df in np.unique(np.logspace(0, 6, 25).round().astype(int)):
            m = int(df) + 1
            values = np.zeros(m)
            values[:2] = 1.0, -1.0  # mean exactly 0, so upper is the half-width
            est = PerEpisodeEstimates(values, 1.0)
            sd = float(est.values.std(ddof=1))
            half = float(stats.t.ppf(1 - alpha / 2, m - 1)) * sd / math.sqrt(m)
            ci = student_t_interval(est, alpha)
            assert (ci.lower, ci.upper) == (-half, half), (df, alpha)

    def test_student_t_gaussian_coverage(self):
        rng = np.random.default_rng(11)
        trials, m = 2000, 40
        covered = 0
        for _ in range(trials):
            sample = rng.normal(size=m)
            ci = student_t_interval(PerEpisodeEstimates(sample, 100.0), 0.1)
            covered += ci.lower <= 0.0 <= ci.upper
        assert abs(covered / trials - 0.9) < 0.02

    def test_widths_monotone_in_m_and_alpha(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(-1, 1, size=1000)
        for maker in (hoeffding_interval, empirical_bernstein_interval, student_t_interval):
            small = maker(PerEpisodeEstimates(values[:100], 1.0), 0.1)
            large = maker(PerEpisodeEstimates(values, 1.0), 0.1)
            assert large.width < small.width
            loose = maker(PerEpisodeEstimates(values, 1.0), 0.2)
            assert loose.width < large.width

    def test_minimum_sample_sizes(self):
        est = PerEpisodeEstimates(np.array([1.0]), 1.0)
        with pytest.raises(ValidationError):
            empirical_bernstein_interval(est, 0.1)
        with pytest.raises(ValidationError):
            student_t_interval(est, 0.1)


def bootstrap_ci(method, eps, target, discount, alpha, b, seed):
    """The ``is-boot`` / ``dr-boot`` interval at one alpha (kappa 0)."""
    return method_intervals(
        method, eps, target, discount=discount, alphas=(alpha,), b=b, kappa=0.0,
        noise_coef=0.25, seed=seed,
    )[alpha]


class TestBootstrapBaselines:
    def test_degenerate_identical_returns(self):
        bandit = two_armed_bandit(r0=1.0, r1=1.0)
        behavior = uniform_policy(1, 2)
        eps = sample_episodes(bandit, behavior, 20, 1, rng_seed=13)
        ci = bootstrap_ci("is-boot", eps, behavior, 0.0, 0.1, 100, seed=14)
        assert ci.lower == ci.upper == ci.point_estimate == 1.0

    def test_single_episode_single_point(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 1, 300, rng_seed=15)
        ci = bootstrap_ci("is-boot", eps, behavior, 0.95, 0.1, 50, seed=16)
        assert ci.lower == ci.upper == ci.point_estimate

    def test_dr_bootstrap_runs_and_is_deterministic(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 30, 300, rng_seed=17)
        a = bootstrap_ci("dr-boot", eps, target, 0.95, 0.1, 100, seed=18)
        b = bootstrap_ci("dr-boot", eps, target, 0.95, 0.1, 100, seed=18)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert a.lower <= a.upper

    def test_is_bootstrap_coverage_on_bandit(self):
        # mean-bootstrap calibration via episode-granularity resampling
        bandit = TabularMdp(
            1, 1, np.ones((1, 1, 1)), [[((0.0, 0.5), (1.0, 0.5))]], np.ones(1), 0.0
        )
        policy = uniform_policy(1, 1)
        covered = 0
        trials = 200
        for k in range(trials):
            eps = sample_episodes(bandit, policy, 300, 1, rng_seed=("band", k))
            ci = bootstrap_ci("is-boot", eps, policy, 0.0, 0.1, 200, seed=("ci", k))
            covered += ci.lower <= 0.5 <= ci.upper
        assert 0.82 <= covered / trials <= 0.97
