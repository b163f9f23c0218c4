"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

The two coverage experiments are deterministic given their master seeds, so
the asserted numbers are reproducible run to run and across worker counts.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from opeci import (
    TupleDataset,
    augment_noisy_rewards,
    build_empirical_model,
    check_gradients,
    counterexample_blowup_probe,
    dm_bootstrap_replicas,
    dm_value,
    exact_policy_value,
    make_counterexample_chain,
    make_random_mdp,
    make_random_policy,
    on_policy_distribution,
    uniform_policy,
)
from opeci.bootstrap import interval_from_replicas
from opeci.cli import main as cli_main
from opeci.empirical import sample_tuples
from opeci.harness import ExperimentConfig, run_coverage_experiment

from _oracles import dm_value_via_qe
from pinned_outputs import CRITERION_7, CRITERION_8, MASTER_SEED, WORKERS


def report_line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def lake_report():
    config = ExperimentConfig(**CRITERION_8)
    start = time.monotonic()
    report = run_coverage_experiment(config, workers=WORKERS)
    return report, time.monotonic() - start


def test_criterion_01_chain_exact_value():
    start = time.monotonic()
    mdp = make_counterexample_chain(50, 0.5)
    value = exact_policy_value(mdp, uniform_policy(mdp.num_states, 1))
    elapsed = time.monotonic() - start
    ok = abs(value - 0.25) < 1e-10 and elapsed < 1.0
    report_line(
        "criterion 1 (chain value 1/4)", ok, f"value={value!r}, runtime={elapsed:.3f}s"
    )


def test_criterion_02_chain_distribution_identity():
    mdp = make_counterexample_chain(50, 0.5)
    dist = on_policy_distribution(mdp, uniform_policy(mdp.num_states, 1))
    worst = max(
        abs(dist[n, 0] - 3.0 / (2.0 * math.pi**2 * n**2)) for n in range(1, 50)
    )
    ok = worst < 1e-10
    report_line("criterion 2 (chain visitation identity)", ok, f"max gap={worst:.2e}")


def test_criterion_03_qe_equals_mb():
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        gamma = 0.2 + 0.0075 * i
        mdp = make_random_mdp(4, 2, gamma, rng_seed=("qemb", i))
        data = sample_tuples(mdp, 120, rng_seed=("qemb-data", i))
        model = build_empirical_model(data, kappa=0.05 * (i % 3), discount=gamma)
        policy = make_random_policy(4, 2, rng_seed=("qemb-pol", i))
        worst = max(worst, abs(dm_value(model, policy) - dm_value_via_qe(model, policy, 1e-12)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report_line(
        "criterion 3 (QE = MB over 100 models)", ok,
        f"worst gap={worst:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_04_gradient_suite():
    start = time.monotonic()
    report = check_gradients(cases=20, tol=1e-3, rng_seed=0)
    elapsed = time.monotonic() - start
    worst = max(report.max_rel_errors)
    ok = report.passed and elapsed < 60.0
    report_line(
        "criterion 4 (influence vs finite differences)", ok,
        f"max rel error={worst:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_05_differentiability_dichotomy():
    rough = counterexample_blowup_probe(50, 0.0, (0.1, 0.01, 0.001))
    growth = abs(rough[-1][1]) / abs(rough[0][1])
    # the regularized quotient converges first-order in epsilon, so one more
    # decade is what puts successive quotients inside 1% of each other
    smooth = counterexample_blowup_probe(50, 1.0, (0.1, 0.01, 0.001, 0.0001))
    last, prev = smooth[-1][1], smooth[-2][1]
    rel_gap = abs(last - prev) / abs(last)
    ok = growth >= 50.0 and rel_gap < 0.01
    report_line(
        "criterion 5 (blow-up dichotomy)", ok,
        f"kappa=0 growth={growth:.1f}x, kappa=1 successive gap={rel_gap:.3%}",
    )


def test_criterion_06_noise_variance_identity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        rewards = rng.normal(size=n) * rng.uniform(0.1, 4.0)
        data = TupleDataset(
            np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            rewards, np.zeros(n, dtype=int), 1, 1,
        )
        scale = float(rng.uniform(0.0, 3.0))
        aug = augment_noisy_rewards(data, scale)
        expected = (2.0 / 3.0) * scale**2 + np.var(rewards)
        worst = max(worst, abs(np.var(aug.r) - expected))
    ok = worst < 1e-12
    report_line("criterion 6 (noise variance identity)", ok, f"worst gap={worst:.2e}")


def test_criterion_07_bandit_mean_bootstrap_coverage():
    config = ExperimentConfig(**CRITERION_7)
    start = time.monotonic()
    report = run_coverage_experiment(config, workers=WORKERS)
    elapsed = time.monotonic() - start
    coverage = report.cell("dm-boot", 500, 0.1).coverage
    ok = 0.87 <= coverage <= 0.93 and elapsed < 300.0
    report_line(
        "criterion 7 (bandit mean-bootstrap coverage)", ok,
        f"coverage={coverage:.3f}, runtime={elapsed:.0f}s",
    )


def test_criterion_08_frozen_lake_qualitative(lake_report):
    report, elapsed = lake_report
    target = 0.9

    def cov(method, n):
        return report.cell(method, n, 0.1).coverage

    small_undercovers = cov("dm-boot", 10) <= target - 0.05
    large_calibrated = abs(cov("dm-boot", 200) - target) <= 0.07
    noisy_ok = all(cov("dm-noisy-boot", n) >= target - 0.03 for n in (10, 50, 100, 200))
    hoeffding_over = all(cov("hoeffding", n) >= target for n in (10, 50, 100, 200))
    student_off = abs(cov("student-t", 10) - target) > 0.07
    ok = (
        small_undercovers and large_calibrated and noisy_ok and hoeffding_over
        and student_off and elapsed < 1800.0
    )
    detail = (
        f"dm-boot@10={cov('dm-boot', 10):.3f}, dm-boot@200={cov('dm-boot', 200):.3f}, "
        f"noisy min={min(cov('dm-noisy-boot', n) for n in (10, 50, 100, 200)):.3f}, "
        f"hoeffding min={min(cov('hoeffding', n) for n in (10, 50, 100, 200)):.3f}, "
        f"student-t@10={cov('student-t', 10):.3f}, runtime={elapsed:.0f}s"
    )
    report_line("criterion 8 (frozen-lake coverage shape)", ok, detail)


def test_criterion_09_worker_determinism(tmp_path, capsys):
    config = {
        "environment": {"type": "frozen_lake"},
        "discount": 0.999,
        "sizes": [15],
        "methods": ["dm-boot", "dm-noisy-boot", "student-t"],
        "alphas": [0.1],
        "trials": 12,
        "bootstrap_b": 80,
        "master_seed": MASTER_SEED,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"coverage_w{workers}.csv"
        code = cli_main(
            ["coverage", "--config", str(config_path), "--out", str(out_path),
             "--workers", workers]
        )
        assert code == 0
        outs.append(out_path.read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1]
    report_line("criterion 9 (worker-count determinism)", ok, f"{len(outs[0])} CSV bytes")


def test_criterion_10_single_tuple_degenerate_interval():
    # through the DM bootstrap that ``dm-boot`` runs
    data = TupleDataset.from_tuples([(0, 0, 0, 0.7, 0)], 1, 1)
    point, diffs = dm_bootstrap_replicas(
        data, uniform_policy(1, 1), 100, MASTER_SEED, kappa=0.0, discount=0.5, n=data.n
    )
    ci = interval_from_replicas(point, diffs, 0.1)
    ok = ci.lower == ci.upper == ci.point_estimate
    report_line(
        "criterion 10 (n=1 degenerate interval)", ok,
        f"interval=[{ci.lower}, {ci.upper}], point={ci.point_estimate}",
    )
