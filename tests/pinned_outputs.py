"""Write the outputs that a change meant to keep results unchanged must
leave byte-identical, for ``diff -r`` against those of another tree.

    PYTHONPATH=src python tests/pinned_outputs.py OUT_DIR

To compare two trees, run this file (with the ``_oracles.py`` beside it)
once with each tree's ``src`` first on PYTHONPATH, into two directories,
and ``diff -r`` them.  It writes:

- the criterion-7 and criterion-8 coverage CSVs and report sidecars, from
  the configurations below that ``test_acceptance.py`` runs (master seed
  20240817, 2 workers);
- ``opeci check-grad --seed 0..3``: stdout, stderr and exit code;
- ``opeci gen-data --seed 5`` files of 2,000 episodes: of the Frozen Lake
  under its epsilon=0.2 behavior policy, and of
  ``make_random_mdp(300, 4, 0.95, 11)`` under
  ``make_random_policy(300, 4, 12)`` at horizon 27, with the MDP and policy
  files they were drawn from;
- ``opeci interval --seed 3`` output for all seven methods on the lake file.

The coverage runs take most of the time: about half a minute on two cores.
"""

import contextlib
import io
import sys
from pathlib import Path

from opeci import (
    make_frozen_lake, make_random_mdp, make_random_policy, optimal_policy,
    perturb_policy_epsilon_greedy,
)
from opeci.cli import main as cli_main
from opeci.harness import METHODS, ExperimentConfig, emit_report, run_coverage_experiment

from _oracles import save_mdp, save_policy

MASTER_SEED = 20240817
WORKERS = 2

# Acceptance criterion 7: dm-boot coverage on the n=500 Bernoulli bandit.
CRITERION_7 = dict(
    environment={"type": "bernoulli_bandit", "p": 0.5},
    discount=0.0,
    sizes=(500,),
    methods=("dm-boot",),
    alphas=(0.1,),
    trials=1000,
    bootstrap_b=1000,
    max_horizon=1,
    master_seed=MASTER_SEED,
)

# Acceptance criterion 8: the coverage shape on the 4x4 Frozen Lake.
CRITERION_8 = dict(
    environment={"type": "frozen_lake"},
    discount=0.999,
    sizes=(10, 50, 100, 200),
    methods=("dm-boot", "dm-noisy-boot", "hoeffding", "student-t"),
    alphas=(0.1,),
    trials=200,
    bootstrap_b=1000,
    master_seed=MASTER_SEED,
)


def run_cli(out: Path, name: str, argv: list) -> None:
    """Run ``opeci argv`` in this process and write its stdout, stderr and
    exit code to ``out/name.txt``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    text = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    (out / f"{name}.txt").write_text(text, encoding="utf-8")


def write_pinned_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, config in (("criterion-07", CRITERION_7), ("criterion-08", CRITERION_8)):
        report = run_coverage_experiment(ExperimentConfig(**config), workers=WORKERS)
        emit_report(report, out / f"{name}.csv")
    for seed in range(4):
        run_cli(out, f"check-grad-seed-{seed}", ["check-grad", "--seed", str(seed)])

    lake = make_frozen_lake()
    target = optimal_policy(lake)
    random_mdp = make_random_mdp(300, 4, 0.95, 11)
    for name, mdp, behavior, horizon in (
        ("lake", lake, perturb_policy_epsilon_greedy(target, 0.2), 10000),
        ("random", random_mdp, make_random_policy(300, 4, 12), 27),
    ):
        save_mdp(mdp, out / f"{name}-mdp.json")
        save_policy(behavior, out / f"{name}-behavior.json")
        run_cli(out, f"gen-data-{name}", [
            "gen-data", "--mdp", str(out / f"{name}-mdp.json"),
            "--policy", str(out / f"{name}-behavior.json"), "--episodes", "2000",
            "--horizon", str(horizon), "--seed", "5", "--out", str(out / f"{name}.jsonl"),
        ])
    save_policy(target, out / "lake-target.json")
    for method in METHODS:
        run_cli(out, f"interval-{method}", [
            "interval", "--data", str(out / "lake.jsonl"), "--method", method,
            "--policy", str(out / "lake-target.json"), "--seed", "3",
        ])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    write_pinned_outputs(Path(sys.argv[1]))
