"""Coverage harness: determinism, aggregation, report emission, replay."""

import json

import numpy as np
import pytest

from opeci import (
    ValidationError,
    emit_report,
    read_report,
    run_coverage_experiment,
)
from opeci.harness import (
    METHODS,
    CoverageCell,
    CoverageReport,
    ExperimentConfig,
    build_environment,
    resolve_target,
    run_single_trial,
)
from opeci.io import save_mdp
from opeci.mdp import make_frozen_lake, optimal_policy, perturb_policy_epsilon_greedy


def bandit_config(**overrides):
    base = dict(
        environment={"type": "bernoulli_bandit", "p": 0.5},
        discount=0.0,
        sizes=(40,),
        methods=("dm-boot", "is-boot", "student-t"),
        alphas=(0.1, 0.3),
        trials=12,
        bootstrap_b=60,
        max_horizon=1,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def deterministic_bandit_config(**overrides):
    """Single possible trajectory: every dataset is identical."""
    base = dict(
        environment={"type": "bernoulli_bandit", "p": 1.0},
        discount=0.0,
        sizes=(5, 20),
        methods=("dm-boot", "dm-noisy-boot", "is-boot", "hoeffding"),
        alphas=(0.05, 0.2),
        trials=8,
        bootstrap_b=40,
        max_horizon=1,
        master_seed=6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunCoverageExperiment:
    def test_deterministic_environment_full_coverage(self):
        report = run_coverage_experiment(deterministic_bandit_config())
        for cell in report.cells:
            if cell.method in ("dm-boot", "dm-noisy-boot", "is-boot"):
                assert cell.coverage == 1.0
                assert cell.mean_width == 0.0
                assert cell.median_lower == cell.median_upper == cell.true_value == 1.0

    @pytest.mark.parametrize("case", ["bandit", "file"])
    def test_worker_counts_agree(self, case, tmp_path):
        config = bandit_config()
        if case == "file":
            # the inputs workers once re-read: an MDP file and an inline target
            mdp = make_frozen_lake(discount=0.95)
            save_mdp(mdp, tmp_path / "lake.json")
            config = ExperimentConfig(
                environment={"type": "file", "path": str(tmp_path / "lake.json")},
                discount=0.95,
                sizes=(6,),
                methods=METHODS,
                alphas=(0.1, 0.25),
                target_policy={"probs": optimal_policy(mdp).probs.tolist()},
                trials=6,
                bootstrap_b=30,
                max_horizon=200,
                master_seed=8,
            )
        assert run_coverage_experiment(config, workers=1) == run_coverage_experiment(
            config, workers=2
        )

    def test_cell_bookkeeping(self):
        config = bandit_config()
        report = run_coverage_experiment(config)
        assert len(report.cells) == len(config.methods) * len(config.sizes) * len(config.alphas)
        for cell in report.cells:
            assert 0.0 <= cell.coverage <= 1.0
            assert round(cell.coverage * cell.trials) == cell.coverage * cell.trials
            assert cell.trials == config.trials
            assert cell.mean_width >= 0.0

    def test_adding_a_method_does_not_perturb_others(self):
        small = run_coverage_experiment(bandit_config(methods=("dm-boot",)))
        big = run_coverage_experiment(bandit_config(methods=("dm-boot", "student-t")))
        for cell in small.cells:
            assert big.cell(cell.method, cell.n, cell.alpha) == cell

    def test_dr_and_noisy_methods_run(self):
        config = bandit_config(methods=("dm-noisy-boot", "dr-boot", "bernstein", "hoeffding"))
        report = run_coverage_experiment(config)
        assert len(report.cells) == 4 * 1 * 2

    def test_trial_replay_matches(self):
        config = bandit_config()
        report = run_coverage_experiment(config)
        mdp = build_environment(config)
        target = resolve_target(mdp, config)
        behavior = perturb_policy_epsilon_greedy(target, config.behavior_epsilon)
        rows = run_single_trial(config, mdp, target, behavior, 40, trial=3)
        assert len(rows) == len(config.methods) * len(config.alphas)
        # replaying every trial and re-aggregating reproduces a cell exactly
        lows = []
        for k in range(config.trials):
            for method, alpha, lo, hi in run_single_trial(
                config, mdp, target, behavior, 40, k
            ):
                if method == "dm-boot" and alpha == 0.1:
                    lows.append(lo)
        cell = report.cell("dm-boot", 40, 0.1)
        assert float(np.median(lows)) == cell.median_lower

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(trials=0))
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(sizes=()))
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(alphas=(1.5,)))
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(methods=("voodoo",)))
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"bogus_field": 1})

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(environment={"type": "casino"}))


class TestEnvironmentsAndPolicies:
    def test_frozen_lake_and_chain_builders(self):
        lake_cfg = bandit_config(environment={"type": "frozen_lake"}, discount=0.999)
        lake = build_environment(lake_cfg)
        assert lake.num_actions == 4 and lake.discount == 0.999
        chain_cfg = bandit_config(
            environment={"type": "chain", "n_intermediate": 7}, discount=0.5
        )
        chain = build_environment(chain_cfg)
        assert chain.num_states == 9

    def test_inline_policy_spec(self):
        config = bandit_config(target_policy={"probs": [[1.0]]})
        mdp = build_environment(config)
        policy = resolve_target(mdp, config)
        assert policy.probs.shape == (1, 1)

    def test_bad_policy_spec(self):
        config = bandit_config(target_policy="sorcery")
        with pytest.raises(ValidationError):
            resolve_target(build_environment(config), config)


class TestReportIO:
    def test_emit_and_round_trip(self, tmp_path):
        report = run_coverage_experiment(bandit_config())
        out = tmp_path / "coverage.csv"
        emit_report(report, out)
        assert read_report(out) == report

    def test_csv_shape_and_header(self, tmp_path):
        config = bandit_config()
        report = run_coverage_experiment(config)
        out = tmp_path / "coverage.csv"
        emit_report(report, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,n,alpha,coverage,mean_width,trials,true_value"
        assert len(lines) == 1 + len(config.methods) * len(config.sizes) * len(config.alphas)
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_empty_method_list_header_only(self, tmp_path):
        report = CoverageReport(cells=(), config=bandit_config(methods=()))
        out = tmp_path / "empty.csv"
        emit_report(report, out)
        assert out.read_text().strip() == "method,n,alpha,coverage,mean_width,trials,true_value"

    def test_sidecar_contains_config_and_seeds(self, tmp_path):
        report = run_coverage_experiment(bandit_config())
        out = tmp_path / "coverage.csv"
        emit_report(report, out)
        sidecar = json.loads((tmp_path / "coverage.csv.json").read_text())
        assert sidecar["config"]["master_seed"] == 5
        assert "seed_scheme" in sidecar
        assert len(sidecar["cells"]) == len(report.cells)

    def test_values_rendered_six_significant_digits(self, tmp_path):
        cell = CoverageCell("dm-boot", 3, 0.1, 1 / 3, 0.123456789, 0.0, 1.0, 3, 0.000123456789)
        report = CoverageReport(cells=(cell,), config=bandit_config())
        out = tmp_path / "digits.csv"
        emit_report(report, out)
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[3] == "0.333333"
        assert row[4] == "0.123457"
        assert row[6] == "0.000123457"
