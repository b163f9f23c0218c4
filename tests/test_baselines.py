"""Importance-sampling estimators and concentration intervals."""

import math

import numpy as np
import pytest

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
from opeci.mdp import Episode, EpisodeSet, Step, normalized_return


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
            per_decision_is(EpisodeSet((ep,), 1, 1), uniform_policy(1, 1), 0.5)

    def test_trajectory_weighting_variant(self):
        # needs per-step rewards: with rewards only at an absorbing goal the
        # two weightings coincide, so use a dense random MDP instead
        from opeci import make_random_mdp, make_random_policy

        mdp = make_random_mdp(4, 2, 0.8, rng_seed=50)
        behavior = make_random_policy(4, 2, rng_seed=51)
        target = make_random_policy(4, 2, rng_seed=52)
        # short horizon: long products degenerate to 0 with an unsampled tail
        eps = sample_episodes(mdp, behavior, 20000, 3, rng_seed=53)
        per_decision = per_decision_is(eps, target, 0.8)
        trajectory = per_decision_is(eps, target, 0.8, trajectory_weighting=True)
        # both unbiased for the same target; whole-trajectory weights add
        # variance by re-weighting early rewards with future ratios
        assert trajectory.values.var() > per_decision.values.var()
        pooled_se = math.sqrt(
            trajectory.values.var(ddof=1) / trajectory.m
            + per_decision.values.var(ddof=1) / per_decision.m
        )
        assert abs(trajectory.values.mean() - per_decision.values.mean()) < 4 * pooled_se


class TestDoublyRobust:
    def test_zero_q_reduces_to_pdis_bitwise(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 50, 300, rng_seed=6)
        pdis = per_decision_is(eps, target, 0.95)
        dr = dr_estimate(eps, target, None, 0.95, q_table=np.zeros((mdp.num_states, 4)))
        assert np.array_equal(pdis.values, dr.values)

    def test_perfect_q_on_deterministic_bandit(self):
        # deterministic arms: the control variate cancels pointwise and every
        # per-episode value is exactly the target's value
        bandit = two_armed_bandit(r0=0.8, r1=0.2)
        behavior = uniform_policy(1, 2)
        target = Policy(np.array([[0.75, 0.25]]))
        eps = sample_episodes(bandit, behavior, 100, 1, rng_seed=7)
        dr = dr_estimate(eps, target, None, 0.0, q_table=q_values(bandit, target))
        rho = exact_policy_value(bandit, target)
        assert np.abs(dr.values - rho).max() < 1e-12

    def test_exact_q_lowers_variance_and_stays_unbiased(self):
        mdp, target, behavior = lake_setup(discount=0.95)
        eps = sample_episodes(mdp, behavior, 10_000, 500, rng_seed=8)
        exact_q = q_values(mdp, target)
        dr = dr_estimate(eps, target, None, 0.95, q_table=exact_q)
        pdis = per_decision_is(eps, target, 0.95)
        exact = exact_policy_value(mdp, target)
        se = dr.values.std(ddof=1) / math.sqrt(dr.m)
        assert abs(dr.values.mean() - exact) < 3 * se
        assert dr.values.var() <= pdis.values.var()

    def test_model_route_equals_q_table_route(self):
        mdp, target, behavior = lake_setup()
        eps = sample_episodes(mdp, behavior, 30, 300, rng_seed=9)
        model = build_empirical_model(tuples_from_episodes(eps), discount=0.95)
        from opeci import dm_q

        a = dr_estimate(eps, target, model, 0.95)
        b = dr_estimate(eps, target, None, 0.95, q_table=dm_q(model, target))
        assert np.array_equal(a.values, b.values)


class TestConcentrationIntervals:
    def test_hoeffding_center_and_width(self):
        est = PerEpisodeEstimates(np.full(50, 3.0), "PDIS", 4.0)
        ci = hoeffding_interval(est, 0.1)
        half = 4.0 * math.sqrt(math.log(2 / 0.1) / (2 * 50))
        assert ci.point_estimate == 3.0
        assert ci.lower == pytest.approx(3.0 - half, abs=1e-12)
        assert ci.upper == pytest.approx(3.0 + half, abs=1e-12)

    def test_hoeffding_width_quarters_with_four_x_samples(self):
        small = PerEpisodeEstimates(np.zeros(25), "PDIS", 1.0)
        large = PerEpisodeEstimates(np.zeros(100), "PDIS", 1.0)
        assert hoeffding_interval(small, 0.05).width == pytest.approx(
            2 * hoeffding_interval(large, 0.05).width, abs=1e-12
        )

    def test_hoeffding_numeric_case(self):
        est = PerEpisodeEstimates(np.zeros(100), "PDIS", 1.0)
        half = hoeffding_interval(est, 0.05).width / 2
        assert half == pytest.approx(math.sqrt(math.log(40) / 200), abs=1e-12)
        assert half == pytest.approx(0.1358, abs=2e-4)

    def test_hoeffding_infinite_range_rejected(self):
        est = PerEpisodeEstimates(np.zeros(5), "PDIS", math.inf)
        with pytest.raises(ValidationError):
            hoeffding_interval(est, 0.1)

    def test_bernstein_zero_variance_width(self):
        est = PerEpisodeEstimates(np.full(30, 2.0), "PDIS", 5.0)
        ci = empirical_bernstein_interval(est, 0.1)
        expected_half = 7 * 5.0 * math.log(2 / 0.1) / (3 * 29)
        assert ci.width / 2 == pytest.approx(expected_half, abs=1e-12)

    def test_bernstein_close_to_hoeffding_at_worst_case_variance(self):
        # variance range^2/4 (values at +/- range/2) and large m: the variance
        # term equals Hoeffding's width and the range term is negligible
        m = 1_000_000
        values = np.tile([0.5, -0.5], m // 2)
        est = PerEpisodeEstimates(values, "PDIS", 1.0)
        bern = empirical_bernstein_interval(est, 0.05)
        hoef = hoeffding_interval(est, 0.05)
        assert bern.width <= 1.01 * hoef.width

    def test_bernstein_numeric_case(self):
        rng = np.random.default_rng(10)
        values = rng.choice([0.0, 1.0], size=100)
        est = PerEpisodeEstimates(values, "PDIS", 1.0)
        ci = empirical_bernstein_interval(est, 0.05)
        log_term = math.log(2 / 0.05)
        expected = math.sqrt(2 * values.var(ddof=1) * log_term / 100) + 7 * log_term / (3 * 99)
        assert ci.width / 2 == pytest.approx(expected, abs=1e-12)

    def test_student_t_two_sample_case(self):
        est = PerEpisodeEstimates(np.array([0.0, 2.0]), "PDIS", 10.0)
        ci = student_t_interval(est, 0.05)
        assert ci.point_estimate == 1.0
        assert ci.width / 2 == pytest.approx(12.7062, abs=1e-3)

    def test_student_t_zero_variance(self):
        est = PerEpisodeEstimates(np.full(10, 1.5), "PDIS", 2.0)
        ci = student_t_interval(est, 0.05)
        assert ci.lower == ci.upper == 1.5

    def test_student_t_gaussian_coverage(self):
        rng = np.random.default_rng(11)
        trials, m = 2000, 40
        covered = 0
        for _ in range(trials):
            sample = rng.normal(size=m)
            ci = student_t_interval(PerEpisodeEstimates(sample, "PDIS", 100.0), 0.1)
            covered += ci.lower <= 0.0 <= ci.upper
        assert abs(covered / trials - 0.9) < 0.02

    def test_widths_monotone_in_m_and_alpha(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(-1, 1, size=1000)
        for maker in (hoeffding_interval, empirical_bernstein_interval, student_t_interval):
            small = maker(PerEpisodeEstimates(values[:100], "PDIS", 1.0), 0.1)
            large = maker(PerEpisodeEstimates(values, "PDIS", 1.0), 0.1)
            assert large.width < small.width
            loose = maker(PerEpisodeEstimates(values, "PDIS", 1.0), 0.2)
            assert loose.width < large.width

    def test_minimum_sample_sizes(self):
        est = PerEpisodeEstimates(np.array([1.0]), "PDIS", 1.0)
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
