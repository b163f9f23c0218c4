"""Coverage harness: determinism, aggregation, report emission, replay."""

import json
import math
import re

import numpy as np
import pytest

from opeci import (
    ValidationError,
    emit_report,
    read_report,
    run_coverage_experiment,
)
from opeci import harness
from opeci.harness import (
    METHODS,
    CoverageCell,
    CoverageReport,
    ExperimentConfig,
    build_environment,
    resolve_target,
    run_single_trial,
)
from opeci.mdp import make_frozen_lake, optimal_policy, perturb_policy_epsilon_greedy

from _oracles import exact_bandit_coverage, save_mdp


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

    def test_pool_never_larger_than_the_trial_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Runs the tasks in this process; records the requested pool size."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_context", ())
        config = bandit_config(trials=2, methods=("student-t",))
        report = run_coverage_experiment(config, workers=64)
        assert sizes == [2]
        assert report == run_coverage_experiment(config, workers=1)

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

    # At b=1000 a replica quantile falls between lattice points, where the
    # b=inf sum puts it on one.  200,000 simulated trials of each cell read
    # +0.0054 and +0.0090 (p=0.5), -0.0048 and -0.0025 (p=0.1) off the sum,
    # each +-0.0009, so the Wilson band at z=3 is widened by 0.011 a side.
    # The alpha=0.2 lower endpoint alone, the one-sided 0.9 bound, read
    # +0.0034 (p=0.5) and +0.0063 (p=0.1) off its sum over 400,000 simulated
    # trials, each +-0.0005, so its band is widened by 0.007 a side.
    @pytest.mark.parametrize("p", [0.5, 0.1])
    def test_dm_boot_coverage_matches_exact_bandit_oracle(self, p, monkeypatch):
        trials, z = 5000, 3.0
        rows, run_trial = [], harness.run_single_trial

        def recorded_trial(*args):
            trial_rows = run_trial(*args)
            rows.extend(trial_rows)
            return trial_rows

        monkeypatch.setattr(harness, "run_single_trial", recorded_trial)
        report = run_coverage_experiment(bandit_config(
            environment={"type": "bernoulli_bandit", "p": p}, sizes=(500,),
            methods=("dm-boot",), alphas=(0.1, 0.2), trials=trials, bootstrap_b=1000,
            master_seed=2026,
        ))

        def within_band(c, exact, lattice):
            zz = z * z / trials
            centre = (c + zz / 2) / (1 + zz)
            half = z / (1 + zz) * math.sqrt(c * (1 - c) / trials + zz / (4 * trials))
            return centre - half - lattice <= exact <= centre + half + lattice

        for alpha in (0.1, 0.2):
            c = report.cell("dm-boot", 500, alpha).coverage
            exact = exact_bandit_coverage(p, 500, alpha)
            assert within_band(c, exact, 0.011), (alpha, c, exact)
        truth = report.cell("dm-boot", 500, 0.2).true_value
        c = np.mean([lower <= truth for _, alpha, lower, _ in rows if alpha == 0.2])
        exact = exact_bandit_coverage(p, 500, 0.2, side="lower")
        assert len(rows) == 2 * trials and within_band(c, exact, 0.007), (c, exact)

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

    @pytest.mark.parametrize("field, value", [
        ("sizes", (40, 40)), ("methods", ("dm-boot", "dm-boot")), ("alphas", (0.1, 0.1)),
    ])
    def test_repeated_entry_rejected(self, field, value):
        # a repeat would add two rows per trial to one cell: coverage above 1
        with pytest.raises(ValidationError, match=f"config field {field} must be .*distinct"):
            bandit_config(**{field: value})

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValidationError):
            run_coverage_experiment(bandit_config(environment={"type": "casino"}))

    @pytest.mark.parametrize("environment", [
        {"type": "bernoulli_bandit", "prob": 0.9},  # would run with p = 0.5
        {"type": "frozen_lake", "slip": 0.0},  # would keep the 0.25 slip
    ])
    def test_unknown_environment_field_rejected(self, environment):
        name = next(k for k in environment if k != "type")
        with pytest.raises(ValidationError, match=f"unknown environment fields .*'{name}'"):
            bandit_config(environment=environment)


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
        with pytest.raises(ValidationError, match="config field target_policy must be"):
            bandit_config(target_policy="sorcery")

    @pytest.mark.parametrize("spec", [
        {"probs": [[1.0]], "epsilon": 0.3}, {"path": "target.json", "probs": [[1.0]]}, {},
        {"path": 5},
    ])
    def test_policy_object_holds_one_known_key(self, spec):
        with pytest.raises(ValidationError, match="config field target_policy"):
            config = bandit_config(target_policy=spec)
            resolve_target(build_environment(config), config)


class TestReportIO:
    def test_emit_and_round_trip(self, tmp_path):
        report = run_coverage_experiment(bandit_config())
        out = tmp_path / "coverage.csv"
        emit_report(report, out)
        assert read_report(out) == report

    # (field, value) put into the last cell
    BAD_CELLS = {
        "coverage-string": ("coverage", "high"), "coverage-above-one": ("coverage", 1.5),
        "trials-negative": ("trials", -5), "n-zero": ("n", 0), "n-float": ("n", 40.0),
        "method-unknown": ("method", "dm-magic"), "alpha-one": ("alpha", 1.0),
        "width-string": ("mean_width", "wide"), "true-value-bool": ("true_value", True),
    }

    @pytest.mark.parametrize("malform", ["empty-object", "list", "cell-missing-field", *BAD_CELLS])
    def test_malformed_sidecar_rejected(self, tmp_path, malform):
        out = tmp_path / "coverage.csv"
        emit_report(run_coverage_experiment(bandit_config(trials=2)), out)
        sidecar = tmp_path / "coverage.csv.json"
        doc = json.loads(sidecar.read_text())
        if malform in self.BAD_CELLS:
            name, value = self.BAD_CELLS[malform]
            doc["cells"][-1][name] = value
        else:
            del doc["cells"][0]["coverage"]
        sidecar.write_text(json.dumps({"empty-object": {}, "list": []}.get(malform, doc)))
        with pytest.raises(ValidationError, match=re.escape(f"report sidecar {sidecar} is malformed")):
            read_report(out)

    def test_invalid_config_in_sidecar_named_by_message(self, tmp_path):
        out = tmp_path / "coverage.csv"
        emit_report(run_coverage_experiment(bandit_config(trials=2)), out)
        sidecar = tmp_path / "coverage.csv.json"
        doc = json.loads(sidecar.read_text())
        doc["config"]["target_policy"] = "greedy"
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as raised:
            read_report(out)
        message = str(raised.value)
        assert message.startswith(f"report sidecar {sidecar} is malformed: invalid config: ")
        assert "config field target_policy must be" in message
        assert "ValidationError(" not in message

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
