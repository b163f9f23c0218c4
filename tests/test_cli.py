"""Command-line interface: flags, exit codes, outputs, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opeci
from opeci import make_frozen_lake, optimal_policy, perturb_policy_epsilon_greedy
from opeci.cli import _build_parser, main
from opeci.harness import METHODS, method_intervals
from opeci.io import load_episodes, load_policy, save_mdp, save_policy
from opeci.mdp import TabularMdp, uniform_policy


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lake_files(tmp_path):
    mdp = make_frozen_lake()
    target = optimal_policy(mdp)
    behavior = perturb_policy_epsilon_greedy(target, 0.2)
    mdp_path = tmp_path / "lake.json"
    target_path = tmp_path / "target.json"
    behavior_path = tmp_path / "behavior.json"
    save_mdp(mdp, mdp_path)
    save_policy(target, target_path)
    save_policy(behavior, behavior_path)
    return mdp_path, target_path, behavior_path


def all_ones_mdp_file(tmp_path):
    mdp = TabularMdp(
        2, 1, np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
        [[((1.0, 1.0),)], [((1.0, 1.0),)]],
        np.array([1.0, 0.0]), 0.9,
    )
    path = tmp_path / "ones.json"
    save_mdp(mdp, path)
    policy_path = tmp_path / "ones_policy.json"
    save_policy(uniform_policy(2, 1), policy_path)
    return path, policy_path


class TestEval:
    def test_all_rewards_one_prints_one(self, tmp_path, capsys):
        mdp_path, policy_path = all_ones_mdp_file(tmp_path)
        code, out, _ = run_cli(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_override(self, lake_files, capsys):
        mdp_path, target_path, _ = lake_files
        code, out, _ = run_cli(
            ["eval", "--mdp", str(mdp_path), "--policy", str(target_path), "--gamma", "0.5"],
            capsys,
        )
        assert code == 0
        assert 0.0 < float(out.strip()) < 1.0

    def test_non_distribution_policy_is_validation_error(self, tmp_path, capsys):
        mdp_path, _ = all_ones_mdp_file(tmp_path)
        policy_path = tmp_path / "bad_policy.json"
        policy_path.write_text(json.dumps({"probs": [[3.0], [3.0]]}))
        code, _, err = run_cli(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )
        assert code == 1
        assert "sum to 1" in err

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["eval", "--mdp", str(tmp_path / "nope.json"), "--policy", "x", "--gamma", "0.9"],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestGenDataAndInterval:
    def test_pipeline(self, lake_files, tmp_path, capsys):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        code, _, _ = run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "30", "--horizon", "200", "--seed", "4", "--out", str(data_path),
            ],
            capsys,
        )
        assert code == 0
        for method in ("dm-boot", "dm-noisy-boot", "is-boot", "dr-boot", "hoeffding",
                       "bernstein", "student-t"):
            code, out, _ = run_cli(
                [
                    "interval", "--data", str(data_path), "--method", method,
                    "--alpha", "0.1", "--b", "50", "--seed", "9",
                    "--policy", str(target_path),
                ],
                capsys,
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["lower"] <= doc["upper"]

    def test_degenerate_single_episode_interval(self, lake_files, tmp_path, capsys):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "one.jsonl"
        run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "1", "--horizon", "100", "--seed", "5", "--out", str(data_path),
            ],
            capsys,
        )
        code, out, _ = run_cli(
            [
                "interval", "--data", str(data_path), "--method", "is-boot",
                "--alpha", "0.1", "--b", "2", "--seed", "0",
                "--policy", str(target_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == doc["upper"] == doc["point"]

    @pytest.mark.parametrize(
        "method", ["is-boot", "dr-boot", "hoeffding", "bernstein", "student-t"]
    )
    def test_logged_state_outside_policy_is_validation_error(
        self, lake_files, tmp_path, capsys, method
    ):
        _, target_path, _ = lake_files
        step = [0, 2, 0.0, 4, 0.85, 0]
        meta = {"num_states": 17, "num_actions": 4, "discount": 0.999}
        lines = [json.dumps({"meta": meta})]
        lines += [json.dumps({"initial_state": 0, "steps": [step]})] * 19
        lines.append(json.dumps({"initial_state": 0, "steps": [[99] + step[1:]]}))
        data_path = tmp_path / "state99.jsonl"
        data_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["interval", "--data", str(data_path), "--method", method, "--b", "10",
             "--policy", str(target_path)],
            capsys,
        )
        assert code == 1
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["dm-boot", "is-boot"])
    def test_zero_behavior_prob_is_validation_error(self, lake_files, tmp_path, capsys, method):
        _, target_path, _ = lake_files
        meta = {"num_states": 17, "num_actions": 4, "discount": 0.999}
        steps = [[0, 2, 0.0, 4, 0.85, 0], [4, 1, 0.0, 8, 0.0, 0]]
        lines = [json.dumps({"meta": meta})]
        lines += [json.dumps({"initial_state": 0, "steps": steps})] * 5
        data_path = tmp_path / "zero_prob.jsonl"
        data_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["interval", "--data", str(data_path), "--method", method, "--b", "10",
             "--policy", str(target_path)],
            capsys,
        )
        assert code == 1
        assert "behavior probability" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", METHODS)
    def test_file_without_episodes_is_validation_error(self, tmp_path, capsys, method):
        data_path = tmp_path / "none.jsonl"
        data_path.write_text(json.dumps({"meta": {"num_states": 2, "num_actions": 2}}) + "\n")
        policy_path = tmp_path / "policy.json"
        save_policy(uniform_policy(2, 2), policy_path)
        code, _, err = run_cli(
            ["interval", "--data", str(data_path), "--method", method, "--b", "10",
             "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )
        assert code == 1
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("horizon, warning", [
        (5, "warning: 45 of 50 episodes stopped at --horizon 5 before a terminal state\n"),
        (10000, ""),
    ])
    def test_gen_data_warns_on_truncation(self, lake_files, tmp_path, capsys, horizon, warning):
        mdp_path, _, behavior_path = lake_files
        code, _, err = run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "50", "--horizon", str(horizon), "--seed", "0",
                "--out", str(tmp_path / "episodes.jsonl"),
            ],
            capsys,
        )
        assert code == 0
        assert err == warning

    @pytest.mark.parametrize("method", ["is-boot", "hoeffding"])
    def test_discount_outside_unit_interval_is_validation_error(
        self, lake_files, tmp_path, capsys, method
    ):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "20", "--horizon", "100", "--seed", "6", "--out", str(data_path),
            ],
            capsys,
        )
        for gamma in ("1.0", "1.5"):
            code, _, err = run_cli(
                ["interval", "--data", str(data_path), "--method", method, "--b", "10",
                 "--gamma", gamma, "--policy", str(target_path)],
                capsys,
            )
            assert code == 1
            assert "discount" in err

    @pytest.mark.parametrize("method", ["dm-boot", "dr-boot"])
    def test_nan_kappa_is_validation_error(self, lake_files, tmp_path, capsys, method):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        assert main(["gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                     "--episodes", "20", "--horizon", "100", "--seed", "6",
                     "--out", str(data_path)]) == 0
        code, out, err = run_cli(
            ["interval", "--data", str(data_path), "--method", method, "--b", "10",
             "--kappa", "nan", "--policy", str(target_path)],
            capsys,
        )
        assert code == 1 and out == ""
        assert "kappa" in err

    def test_interval_determinism(self, lake_files, tmp_path, capsys):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "20", "--horizon", "100", "--seed", "6", "--out", str(data_path),
            ],
            capsys,
        )
        args = [
            "interval", "--data", str(data_path), "--method", "dm-boot",
            "--alpha", "0.1", "--b", "80", "--seed", "11", "--policy", str(target_path),
        ]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestFrontEndsAgree:
    """``opeci interval`` and the harness share one method registry."""

    def test_method_choices_are_the_registry(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["interval"]._actions if a.dest == "method")
        assert tuple(method.choices) == METHODS

    @pytest.mark.parametrize("method", METHODS)
    def test_interval_json_equals_method_intervals(self, lake_files, tmp_path, capsys, method):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        run_cli(
            [
                "gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                "--episodes", "40", "--horizon", "200", "--seed", "4", "--out", str(data_path),
            ],
            capsys,
        )
        code, out, _ = run_cli(
            [
                "interval", "--data", str(data_path), "--method", method, "--alpha", "0.1",
                "--b", "60", "--kappa", "0.05", "--seed", "9", "--policy", str(target_path),
            ],
            capsys,
        )
        assert code == 0
        episodes, gamma = load_episodes(data_path)
        ci = method_intervals(
            method, episodes, load_policy(target_path), discount=gamma, alphas=(0.1,), b=60,
            kappa=0.05, noise_coef=0.25, seed=9,
        )[0.1]
        assert json.loads(out) == {"lower": ci.lower, "upper": ci.upper, "point": ci.point_estimate}


class TestMalformedInputs:
    """Malformed files exit 1 with an error line, never 2 with a traceback."""

    def assert_validation_exit(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "error" in err and "Traceback" not in err

    def test_ragged_policy(self, tmp_path, capsys):
        mdp_path, _ = all_ones_mdp_file(tmp_path)
        policy_path = tmp_path / "ragged.json"
        policy_path.write_text(json.dumps({"probs": [[1.0], [0.5, 0.5]]}))
        self.assert_validation_exit(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )

    @pytest.mark.parametrize("field, value", [
        ("num_states", "x"), ("transitions", [[[0.0, 1.0]], [[1.0]]]), ("num_states", "2"),
        ("num_actions", 1.0), ("discount", "0.9"), ("r_max", "1"), ("terminal_states", ["1"]),
        ("terminal_states", [True]), ("transitions", [[["0", "1"]], [["0", "1"]]]),
        ("initial_dist", [True, False]), ("rewards", [[[["1", 1]]], [[[1, 1]]]]),
    ])
    def test_malformed_mdp_field(self, tmp_path, capsys, field, value):
        mdp_path, policy_path = all_ones_mdp_file(tmp_path)
        doc = json.loads(mdp_path.read_text())
        doc[field] = value
        mdp_path.write_text(json.dumps(doc))
        self.assert_validation_exit(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )

    @pytest.mark.parametrize("doc", [{"map": 5}, {"map": ["SG"], "slip_prob": "x"}, [1, 2], ["map"]])
    def test_malformed_grid_mdp(self, tmp_path, capsys, doc):
        _, policy_path = all_ones_mdp_file(tmp_path)
        mdp_path = tmp_path / "grid.json"
        mdp_path.write_text(json.dumps(doc))
        self.assert_validation_exit(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )

    @pytest.mark.parametrize("probs", [[["1.0"]] * 2, [[True], [True]], [[True], [1]]])
    def test_policy_of_wrong_json_kind(self, tmp_path, capsys, probs):
        mdp_path, policy_path = all_ones_mdp_file(tmp_path)
        policy_path.write_text(json.dumps({"probs": probs}))
        self.assert_validation_exit(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )

    @pytest.mark.parametrize("override", [
        {"sizes": ["ten"]}, {"target_policy": {"probs": [[1.0], [0.5, 0.5]]}},
        {"target_policy": {"probs": [["1.0"]]}}, {"bootstrap_b": "10"}, {"kappa": "0"},
        {"discount": "0.0"}, {"trials": 2.5}, {"max_horizon": 2.5}, {"sizes": [10.7]},
        {"master_seed": 1.5}, {"noise_coef": "x"}, {"methods": "dm-boot"}, {"alphas": "0.1"},
        {"trials": True}, {"kappa": float("nan")}, {"environment": "bernoulli_bandit"},
        {"noise_coef": -0.5},
    ], ids=[
        "sizes", "target_policy", "target_policy-strings", "bootstrap_b", "kappa", "discount",
        "trials", "max_horizon", "sizes-float", "master_seed", "noise_coef", "methods", "alphas",
        "trials-bool", "kappa-nan", "environment", "noise_coef-negative",
    ])
    def test_malformed_coverage_config(self, tmp_path, capsys, override):
        config = {
            "environment": {"type": "bernoulli_bandit", "p": 0.5},
            "discount": 0.0,
            "sizes": [10],
            "methods": ["student-t"],
            "trials": 2,
            "max_horizon": 1,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**config, **override}))
        code, _, err = run_cli(
            ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 1 and "Traceback" not in err
        assert next(iter(override)) in err  # the message names the field


    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_coverage_workers_below_one(self, tmp_path, capsys, workers):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "environment": {"type": "bernoulli_bandit"}, "discount": 0.0, "sizes": [10],
            "methods": ["student-t"], "trials": 2, "max_horizon": 1,
        }))
        self.assert_validation_exit(
            ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv"),
             "--workers", workers],
            capsys,
        )

    @pytest.mark.parametrize("method", ["hoeffding", "bernstein"])
    @pytest.mark.parametrize("alpha", ["0", "-1", "inf"])
    def test_interval_alpha_outside_unit_interval(self, lake_files, tmp_path, capsys, method, alpha):
        mdp_path, target_path, behavior_path = lake_files
        data_path = tmp_path / "episodes.jsonl"
        assert main(["gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                     "--episodes", "5", "--horizon", "100", "--seed", "0",
                     "--out", str(data_path)]) == 0
        self.assert_validation_exit(
            ["interval", "--data", str(data_path), "--method", method, "--alpha", alpha,
             "--policy", str(target_path)],
            capsys,
        )

    @pytest.mark.parametrize("environment, field", [
        ({"type": "bernoulli_bandit", "p": "0.5"}, "p"),
        ({"type": "bernoulli_bandit", "p": True}, "p"),
        ({"type": "frozen_lake", "slip_prob": "0.1"}, "slip_prob"),
        ({"type": "frozen_lake", "map": 5}, "map"),
        ({"type": "chain", "n_intermediate": 2.7}, "n_intermediate"),
        ({"type": "file"}, "path"),
    ], ids=["p-string", "p-bool", "slip_prob-string", "map-number", "n_intermediate-float",
            "file-without-path"])
    def test_malformed_coverage_environment(self, tmp_path, capsys, environment, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "environment": environment, "discount": 0.0, "sizes": [5],
            "methods": ["student-t"], "trials": 2, "max_horizon": 20,
        }))
        code, _, err = run_cli(
            ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 1 and "Traceback" not in err
        assert f"environment field {field} " in err

    @pytest.mark.parametrize("command", ["eval", "gen-data"])
    @pytest.mark.parametrize("field, path", [
        ("transitions", (1, 0, 1)), ("initial_dist", (0,)), ("rewards", (1, 0, 0, 1)),
    ], ids=["transitions", "initial_dist", "reward-prob"])
    def test_nan_in_mdp_file(self, tmp_path, capsys, command, field, path):
        mdp_path, policy_path = all_ones_mdp_file(tmp_path)
        doc = json.loads(mdp_path.read_text())
        table = doc[field]
        for i in path[:-1]:
            table = table[i]
        table[path[-1]] = float("nan")
        mdp_path.write_text(json.dumps(doc))
        args = {
            "eval": ["eval", "--gamma", "0.9"],
            "gen-data": ["gen-data", "--episodes", "3", "--horizon", "5", "--seed", "0",
                         "--out", str(tmp_path / "eps.jsonl")],
        }[command]
        self.assert_validation_exit(
            args + ["--mdp", str(mdp_path), "--policy", str(policy_path)], capsys
        )

    @pytest.mark.parametrize("field, value", [
        ("transitions", [[[0.0, 1.0]], [[0, True]]]), ("terminal_states", [1, True]),
    ], ids=["transitions", "terminal_states"])
    def test_boolean_mixed_into_mdp_numbers(self, tmp_path, capsys, field, value):
        mdp_path, policy_path = all_ones_mdp_file(tmp_path)
        doc = json.loads(mdp_path.read_text())
        doc[field] = value
        mdp_path.write_text(json.dumps(doc))
        self.assert_validation_exit(
            ["eval", "--mdp", str(mdp_path), "--policy", str(policy_path), "--gamma", "0.9"],
            capsys,
        )

    @pytest.mark.parametrize("doc", [5, [["sizes"]]])
    def test_coverage_config_not_an_object(self, tmp_path, capsys, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        self.assert_validation_exit(
            ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv")], capsys
        )

    @pytest.mark.parametrize(
        "command, flag",
        [("interval", "--data"), ("interval", "--policy"), ("eval", "--mdp"), ("coverage", "--config")],
    )
    def test_non_utf8_file(self, lake_files, tmp_path, capsys, command, flag):
        mdp_path, target_path, behavior_path = lake_files
        data_path, config_path = tmp_path / "episodes.jsonl", tmp_path / "config.json"
        assert main(["gen-data", "--mdp", str(mdp_path), "--policy", str(behavior_path),
                     "--episodes", "5", "--horizon", "100", "--seed", "0",
                     "--out", str(data_path)]) == 0
        config_path.write_text(json.dumps({
            "environment": {"type": "bernoulli_bandit"}, "discount": 0.0, "sizes": [10],
            "methods": ["student-t"], "trials": 2, "max_horizon": 1,
        }))
        args = {
            "interval": ["interval", "--data", str(data_path), "--method", "is-boot",
                         "--b", "10", "--policy", str(target_path)],
            "eval": ["eval", "--mdp", str(mdp_path), "--policy", str(target_path), "--gamma", "0.9"],
            "coverage": ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv")],
        }[command]
        assert run_cli(args, capsys)[0] == 0
        good = Path(args[args.index(flag) + 1])
        bad = tmp_path / ("utf16-" + good.name)
        bad.write_text(good.read_text(), encoding="utf-16")  # starts with the bytes ff fe
        args[args.index(flag) + 1] = str(bad)
        self.assert_validation_exit(args, capsys)

    @pytest.mark.parametrize("field, value", [
        (0, 1.5), (1, 2.7), (0, True), (5, "false"), (5, 2), (2, "1.0"),
    ], ids=["state-1.5", "action-2.7", "state-true", "terminal-string", "terminal-2", "reward-string"])
    def test_episode_value_not_coerced(self, lake_files, tmp_path, capsys, field, value):
        _, target_path, _ = lake_files
        data_path = tmp_path / "one_step.jsonl"
        args = ["interval", "--data", str(data_path), "--method", "is-boot", "--b", "10",
                "--policy", str(target_path)]
        meta = {"num_states": 17, "num_actions": 4, "discount": 0.999}
        step = [0, 2, 0.0, 4, 0.85, 0]

        def write_step():
            episode = {"initial_state": 0, "steps": [step]}
            data_path.write_text(json.dumps({"meta": meta}) + "\n" + json.dumps(episode) + "\n")

        write_step()
        assert run_cli(args, capsys)[0] == 0
        step[field] = value
        write_step()
        self.assert_validation_exit(args, capsys)

class TestCoverageCommand:
    def test_worker_counts_byte_identical(self, tmp_path, capsys):
        config = {
            "environment": {"type": "bernoulli_bandit", "p": 0.5},
            "discount": 0.0,
            "sizes": [30],
            "methods": ["dm-boot", "student-t"],
            "alphas": [0.1],
            "trials": 10,
            "bootstrap_b": 40,
            "max_horizon": 1,
            "master_seed": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        code1, _, _ = run_cli(
            ["coverage", "--config", str(config_path), "--out", str(out1), "--workers", "1"],
            capsys,
        )
        code2, _, _ = run_cli(
            ["coverage", "--config", str(config_path), "--out", str(out2), "--workers", "2"],
            capsys,
        )
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_validation_exit(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"environment": {"type": "bernoulli_bandit"}}))
        code, _, err = run_cli(
            ["coverage", "--config", str(config_path), "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestProbesAndChecks:
    def test_check_grad_passes(self, capsys):
        code, out, _ = run_cli(
            ["check-grad", "--seed", "0", "--cases", "3", "--tol", "1e-3"], capsys
        )
        assert code == 0
        assert "PASS" in out

    def test_check_grad_fails_at_impossible_tol(self, capsys):
        code, out, _ = run_cli(
            ["check-grad", "--seed", "0", "--cases", "2", "--tol", "1e-18"], capsys
        )
        assert code == 1
        assert "FAIL" in out

    def test_blowup_probe_csv(self, tmp_path, capsys):
        out_path = tmp_path / "probe.csv"
        code, _, _ = run_cli(
            ["blowup-probe", "--N", "20", "--kappa", "0", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,quotient,kappa"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        quotients = [abs(float(r[1])) for r in rows]
        assert quotients[-1] > quotients[0]


def child_env():
    """This environment with the imported package's source directory first on
    PYTHONPATH, so a child interpreter imports the same opeci."""
    src = str(Path(opeci.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class TestArgumentHandling:
    def test_unknown_flag_rejected_with_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opeci.cli", "eval", "--mdp", "x", "--policy", "y",
             "--gamma", "0.9", "--frobnicate"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()

    def test_unknown_subcommand_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opeci.cli", "transmogrify"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()
