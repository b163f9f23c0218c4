"""Influence functional, finite-difference agreement, and the blow-up probe."""

import numpy as np
import pytest

from opeci import (
    PriorSpec,
    TupleDataset,
    UnvisitedPairError,
    build_empirical_model,
    check_gradients,
    counterexample_blowup_probe,
    dm_value,
    finite_difference_influence,
    influence,
    make_random_mdp,
    make_random_policy,
    uniform_policy,
)
from opeci.dm import empirical_on_policy_distribution
from opeci.empirical import sample_tuples
from opeci.errors import ValidationError
from opeci.seeding import as_generator
from opeci.sensitivity import _random_case_data

from _oracles import influence_per_tuple, logged_tuples, sparse_case_data


def full_support_case(seed, num_states=4, num_actions=2, gamma=0.8):
    mdp = make_random_mdp(num_states, num_actions, gamma, rng_seed=seed)
    policy = make_random_policy(num_states, num_actions, rng_seed=seed + 1)
    extra = sample_tuples(mdp, 12 * num_states * num_actions, rng_seed=seed + 2)
    s = np.repeat(np.arange(num_states), num_actions)
    a = np.tile(np.arange(num_actions), num_states)
    data = TupleDataset(
        np.append(extra.s0, np.zeros(len(s), dtype=int)),
        np.append(extra.s, s),
        np.append(extra.a, a),
        np.append(extra.r, np.zeros(len(s))),
        np.append(extra.sp, np.zeros(len(s), dtype=int)),
        num_states,
        num_actions,
    )
    return mdp, policy, data


def one_row(tup, num_states, num_actions):
    return TupleDataset.from_tuples([tup], num_states, num_actions)


def gradient_check_probes(kappa, full_support, rng_seed, cases):
    """Yield each gradient-check case's data, model, policy and probe tuples,
    drawn in ``check_gradients``'s order from its per-case generator; without
    full support the data leave half the (s, a) pairs unvisited."""
    case_data = _random_case_data if full_support else sparse_case_data
    for case in range(cases):
        rng = as_generator(("gradcheck", rng_seed, case))
        _, policy, data, gamma = case_data(rng, 4, 2)
        model = build_empirical_model(data, None, kappa, discount=gamma)
        tuples = [
            (
                int(rng.integers(4)), int(rng.integers(4)), int(rng.integers(2)),
                float(rng.uniform(-1.0, 1.0)), int(rng.integers(4)),
            )
            for _ in range(50)
        ]
        yield data, model, policy, TupleDataset.from_tuples(tuples, 4, 2)


def max_rel_error(closed, quotients):
    """Largest relative gap, with ``check_gradients``' floor of 1e-3 times
    the largest magnitude."""
    scale = np.maximum(np.abs(closed), np.abs(quotients))
    floor = max(1e-3 * scale.max(), 1e-12)
    return float((np.abs(closed - quotients) / np.maximum(scale, floor)).max())


class TestInfluence:
    def test_all_rewards_one_stationary_tuple(self):
        # exhaustive all-ones model: V is 1/(1-g) everywhere, so a consistent
        # tuple (r*=1) is a stationarity direction and every term vanishes
        data = TupleDataset.from_tuples(
            [(s0, s, 0, 1.0, sp) for s0 in range(2) for s in range(2) for sp in range(2)], 2, 1
        )
        model = build_empirical_model(data, discount=0.6)
        policy = uniform_policy(2, 1)
        breakdown = influence(model, policy, one_row((0, 1, 0, 1.0, 0), 2, 1))
        assert breakdown.reward_term[0] == pytest.approx(0.0, abs=1e-12)
        assert breakdown.initial_state_term[0] == pytest.approx(0.0, abs=1e-12)
        assert breakdown.next_state_term[0] == pytest.approx(0.0, abs=1e-12)
        assert breakdown.total[0] == pytest.approx(0.0, abs=1e-12)

    def test_total_is_sum_of_terms(self):
        _, policy, data = full_support_case(100)
        model = build_empirical_model(data, discount=0.8)
        breakdown = influence(model, policy, one_row((0, 1, 1, 0.4, 2), 4, 2))
        assert breakdown.total[0] == pytest.approx(
            breakdown.reward_term[0] + breakdown.initial_state_term[0]
            + breakdown.next_state_term[0],
            abs=1e-12,
        )

    def test_matches_finite_difference(self):
        _, policy, data = full_support_case(200)
        model = build_empirical_model(data, discount=0.8)
        rng = np.random.default_rng(0)
        probes = TupleDataset(
            rng.integers(4, size=20), rng.integers(4, size=20), rng.integers(2, size=20),
            rng.uniform(-1, 1, size=20), rng.integers(4, size=20), 4, 2,
        )
        closed = influence(model, policy, probes).total
        fd = finite_difference_influence(data, policy, probes, 1e-6, 0.0, discount=0.8)
        assert fd.shape == (20,)
        bound = 1e-4 * np.maximum(np.maximum(np.abs(closed), np.abs(fd)), 0.01)
        assert (np.abs(closed - fd) < bound).all()

    def test_unvisited_pair_kappa_zero_raises(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 1)], 3, 2)
        model = build_empirical_model(data, kappa=0.0, discount=0.5)
        with pytest.raises(UnvisitedPairError):
            influence(model, uniform_policy(3, 2), one_row((0, 2, 1, 0.0, 0), 3, 2))

    def test_unvisited_error_names_first_unvisited_row(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 1)], 3, 2)
        model = build_empirical_model(data, kappa=0.0, discount=0.5)
        probes = TupleDataset.from_tuples(
            [(0, 0, 0, 0.0, 0), (0, 2, 1, 0.0, 0), (0, 1, 0, 0.0, 0)], 3, 2
        )
        with pytest.raises(UnvisitedPairError) as caught:
            influence(model, uniform_policy(3, 2), probes)
        assert str(caught.value) == (
            "pair (s=2, a=1) is unvisited and kappa=0: derivative diverges"
        )

    def test_kappa_positive_handles_unvisited(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 1)], 3, 2)
        model = build_empirical_model(data, kappa=0.5, discount=0.5)
        policy = uniform_policy(3, 2)
        tup = (0, 2, 1, 0.3, 0)
        probe = one_row(tup, 3, 2)
        closed = influence(model, policy, probe).total[0]
        fd = finite_difference_influence(data, policy, probe, 1e-7, 0.5, discount=0.5)[0]
        assert abs(closed - fd) < 1e-4 * max(abs(closed), abs(fd), 0.01)

    def test_zero_mean_over_data_distribution(self):
        for kappa in (0.0, 0.3):
            _, policy, data = full_support_case(300)
            model = build_empirical_model(data, kappa=kappa, discount=0.8)
            total = influence(model, policy, data).total.sum()
            assert abs(total / data.n) < 1e-9

    def test_weight_ratio_sup_agreement(self):
        _, policy, data = full_support_case(400)
        model = build_empirical_model(data, discount=0.8)
        sup_from_tuples = influence(model, policy, data).weight_ratio.max()
        dpi = empirical_on_policy_distribution(model, policy)
        mass = model.pair_mass()
        visited = mass > 0
        sup_direct = float((dpi[visited] / mass[visited]).max())
        assert sup_from_tuples == pytest.approx(sup_direct, rel=1e-12)

    @pytest.mark.parametrize("num_states, num_actions", [(5, 2), (4, 3), (3, 2)])
    def test_probe_space_must_match_model(self, num_states, num_actions):
        _, policy, data = full_support_case(600)
        model = build_empirical_model(data, discount=0.8)
        probes = one_row((0, num_states - 1, num_actions - 1, 0.0, 0), num_states, num_actions)
        with pytest.raises(ValidationError, match="probe tuples have"):
            influence(model, policy, probes)

    @pytest.mark.parametrize("kappa", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("full_support", [True, False])
    def test_matches_per_tuple_reference(self, kappa, full_support):
        fields = ("reward_term", "initial_state_term", "next_state_term", "total", "weight_ratio")
        checked = 0
        for _, model, policy, probes in gradient_check_probes(kappa, full_support, 0, 10):
            if kappa == 0.0:
                probes = probes[model.counts[probes.s, probes.a] > 0]
            got = influence(model, policy, probes)
            refs = [influence_per_tuple(model, policy, tup) for tup in logged_tuples(probes)]
            for name in fields:
                have = getattr(got, name)
                want = np.array([getattr(ref, name) for ref in refs])
                # 1e-12 relative with an absolute floor of 1; infinities exactly
                finite = np.isfinite(want)
                assert (have[~finite] == want[~finite]).all(), name
                gap = np.abs(have[finite] - want[finite])
                assert (gap <= 1e-12 * np.maximum(np.abs(want[finite]), 1.0)).all(), name
            checked += probes.n
        assert checked >= 200


class TestFiniteDifference:
    def test_t_one_single_tuple_self_mixture(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0)], 1, 1)
        fd = finite_difference_influence(data, uniform_policy(1, 1), data, 1.0, 0.0, discount=0.5)
        assert fd.tolist() == [pytest.approx(0.0, abs=1e-12)]

    def test_richardson_linearity(self):
        _, policy, data = full_support_case(500)
        probe = one_row((0, 2, 1, 0.7, 3), 4, 2)
        coarse = finite_difference_influence(data, policy, probe, 1e-4, 0.0, discount=0.8)[0]
        fine = finite_difference_influence(data, policy, probe, 1e-6, 0.0, discount=0.8)[0]
        assert abs(coarse - fine) < 1e-2 * max(1.0, abs(fine))

    def test_rows_are_independent_quotients(self):
        # each row tilts the untilted data alone, so a quotient does not
        # depend on the other probe rows or their order
        _, policy, data = full_support_case(700)
        probes = data[np.arange(6)]
        together = finite_difference_influence(data, policy, probes, 1e-6, 0.3, discount=0.8)
        for i in range(6):
            alone = finite_difference_influence(data, policy, probes[[i]], 1e-6, 0.3, discount=0.8)
            assert alone.tolist() == [together[i]]
        reversed_rows = finite_difference_influence(
            data, policy, probes[np.arange(5, -1, -1)], 1e-6, 0.3, discount=0.8
        )
        assert reversed_rows.tolist() == together[::-1].tolist()

    def test_invalid_t_rejected(self):
        data = TupleDataset.from_tuples([(0, 0, 0, 1.0, 0)], 1, 1)
        with pytest.raises(ValidationError):
            finite_difference_influence(data, uniform_policy(1, 1), data, 0.0, 0.0, discount=0.5)


class TestCheckGradients:
    def test_full_support_suite_passes(self):
        report = check_gradients(cases=8, tol=1e-3, rng_seed=1)
        assert report.passed
        assert len(report.max_rel_errors) == 8
        assert max(report.max_rel_errors) < 1e-3

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_every_case_visits_every_pair(self, rng_seed):
        # so ``influence`` at kappa = 0 cannot meet an unvisited pair
        for case in range(20):
            rng = as_generator(("gradcheck", rng_seed, case))
            _, _, data, gamma = _random_case_data(rng, 4, 2)
            assert (build_empirical_model(data, discount=gamma).counts > 0).all()

    def test_sparse_kappa_zero_reports_breach(self):
        for _, model, policy, probes in gradient_check_probes(0.0, False, 2, 4):
            with pytest.raises(UnvisitedPairError):
                influence(model, policy, probes)

    def test_sparse_kappa_zero_error_strings(self):
        pairs = [
            (3, 1), (2, 0), (2, 0), (3, 0), (3, 0), (2, 1), (3, 1), (2, 1), (2, 1), (3, 0),
            (3, 1), (3, 1), (3, 0), (2, 1), (3, 1), (2, 1), (3, 0), (2, 1), (2, 1), (3, 0),
        ]
        errors = []
        for _, model, policy, probes in gradient_check_probes(0.0, False, 0, 20):
            with pytest.raises(UnvisitedPairError) as caught:
                influence(model, policy, probes)
            errors.append(str(caught.value))
        assert errors == [
            f"pair (s={s}, a={a}) is unvisited and kappa=0: derivative diverges"
            for s, a in pairs
        ]

    def test_sparse_with_kappa_passes(self):
        for data, model, policy, probes in gradient_check_probes(0.1, False, 3, 6):
            closed = influence(model, policy, probes).total
            quotients = finite_difference_influence(
                data, policy, probes, 1e-6, 0.1, discount=model.discount
            )
            assert max_rel_error(closed, quotients) < 1e-3

    @pytest.mark.parametrize("cases", [0, -1])
    def test_no_cases_rejected(self, cases):
        with pytest.raises(ValidationError, match="cases must be >= 1"):
            check_gradients(cases=cases)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_tol_not_finite_positive_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol must be a finite number > 0"):
            check_gradients(cases=1, tol=tol)


class TestBlowupProbe:
    def test_kappa_zero_quotients_grow_inverse_epsilon(self):
        points = counterexample_blowup_probe(50, 0.0, (0.1, 0.01, 0.001))
        quotients = [abs(q) for _, q in points]
        assert quotients[2] / quotients[0] >= 50

    def test_kappa_one_quotients_converge(self):
        points = counterexample_blowup_probe(50, 1.0, (0.1, 0.01, 0.001, 0.0001))
        quotients = [q for _, q in points]
        assert abs(quotients[-1] - quotients[-2]) < 0.01 * abs(quotients[-1])
        # successive gaps shrink toward the limit
        gaps = [abs(b - a) for a, b in zip(quotients, quotients[1:])]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_base_value_shift_matches_prior_mass(self):
        # the re-assigned branch leaves the model value above the true 1/4 by
        # exactly the on-policy mass of the emptied pair (reward prior is 1)
        from opeci import on_policy_distribution
        from opeci.sensitivity import _chain_tuple_distribution, _point_transition_prior

        n = 50
        mdp, policy, data, weights = _chain_tuple_distribution(n, 0.5)
        probe_prior = PriorSpec(
            reward_mean=1.0,
            transition_probs=_point_transition_prior(mdp.num_states, 1, mdp.num_states - 1),
        )
        model = build_empirical_model(
            data, probe_prior, kappa=0.0, discount=0.5, weights=weights
        )
        moved = on_policy_distribution(mdp, policy)[n, 0]
        assert dm_value(model, policy) == pytest.approx(0.25 + moved, abs=1e-12)

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            counterexample_blowup_probe(10, 0.0, (0.01, 0.1))
        with pytest.raises(ValidationError):
            counterexample_blowup_probe(10, 0.0, (1.5, 0.1))
