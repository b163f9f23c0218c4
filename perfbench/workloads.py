"""The benchmark's workloads: set-up, one round of program calls, and checks.

A run repeats whole rounds until its time is up.  Round k of a run with
seed s uses the seed ``s * 100000 + k``, so the same seed gives the same
inputs.  Only the program's own calls are inside a round's timed block;
preparing inputs and checking outputs happen outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from zlib import crc32

import numpy as np

import opeci
import opeci.cli
import opeci.harness

import oracles

ALPHA = 0.1
BOOTSTRAP_B = 1000
BEHAVIOR_EPSILON = 0.2


def round_seed(seed: int, k: int) -> int:
    return seed * 100_000 + k


@dataclass
class Setup:
    mdp: object
    target: object
    behavior: object
    true_value: float


@dataclass
class Round:
    """What one round did: its timed wall, operation counts and outputs."""

    wall_s: float
    attempted: int
    failed: int
    outputs: dict


def make_lake():
    return opeci.make_frozen_lake(slip_prob=0.25, discount=0.999)


def make_bandit():
    return opeci.make_bernoulli_bandit(0.5).with_discount(0.0)


def build_setup(make_mdp) -> Setup:
    mdp = make_mdp()
    target = opeci.optimal_policy(mdp)
    behavior = opeci.perturb_policy_epsilon_greedy(target, BEHAVIOR_EPSILON)
    return Setup(mdp, target, behavior, opeci.exact_policy_value(mdp, target))


def bounds_problems(rows) -> list:
    return [
        f"{method} alpha={alpha}: bounds ({lo}, {hi}) are not finite with lower <= upper"
        for method, alpha, lo, hi in rows
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi)
    ]


def cell_problems(report, trial_rows) -> list:
    """Recompute each coverage cell from the rows captured per trial."""
    problems = []
    for cell in report.cells:
        bounds = np.array([
            (lo, hi) for n, _, rows in trial_rows if n == cell.n
            for method, alpha, lo, hi in rows if method == cell.method and alpha == cell.alpha
        ])
        if len(bounds) != cell.trials:
            problems.append(
                f"cell {cell.method} n={cell.n}: {len(bounds)} rows for {cell.trials} trials")
            continue
        covered = (bounds[:, 0] <= cell.true_value) & (cell.true_value <= bounds[:, 1])
        width = float((bounds[:, 1] - bounds[:, 0]).mean())
        if covered.sum() / cell.trials != cell.coverage or not oracles.close(
            cell.mean_width, width, 1e-12, 1e-15
        ):
            problems.append(
                f"cell {cell.method} n={cell.n}: coverage {cell.coverage} / width "
                f"{cell.mean_width} differ from the rows ({covered.mean()}, {width})"
            )
    return problems


class CoverageWorkload:
    """One ``run_coverage_experiment`` call per round, with ``workers=1``."""

    environment: dict
    discount: float
    sizes: tuple
    methods: tuple
    max_horizon: int

    def __init__(self, trials: int, b: int = BOOTSTRAP_B):
        self.trials = trials
        self.b = b
        self.captured = []

    def setup(self) -> Setup:
        return build_setup(self.make_mdp)

    def prepare(self, ctx: Setup) -> None:
        """Capture each trial's rows at the harness's documented replay entry point."""
        original = opeci.harness.run_single_trial
        captured = self.captured

        def capture(*args, **kwargs):
            rows = original(*args, **kwargs)
            captured.append((args[4], args[5], rows))
            return rows

        opeci.harness.run_single_trial = capture

    def warm_up(self, ctx: Setup) -> None:
        """One tiny experiment, so lazy initialisation is not timed."""
        tiny = replace(self.config(0), trials=1, bootstrap_b=10)
        opeci.harness.run_coverage_experiment(tiny, workers=1)

    def config(self, master_seed: int):
        return opeci.harness.ExperimentConfig(
            environment=self.environment,
            discount=self.discount,
            sizes=self.sizes,
            methods=self.methods,
            alphas=(ALPHA,),
            target_policy="optimal",
            behavior_epsilon=BEHAVIOR_EPSILON,
            trials=self.trials,
            bootstrap_b=self.b,
            master_seed=master_seed,
            max_horizon=self.max_horizon,
        )

    def run_round(self, ctx: Setup, seed: int, k: int) -> Round:
        config = self.config(round_seed(seed, k))
        self.captured.clear()
        t0 = perf_counter()
        report = opeci.harness.run_coverage_experiment(config, workers=1)
        wall = perf_counter() - t0
        trial_rows = list(self.captured)
        attempted = sum(len(rows) for _, _, rows in trial_rows)
        return Round(wall, attempted, 0, {"config": config, "report": report, "trials": trial_rows})

    def dm_point(self, ctx: Setup, config, n: int):
        """(the program's DM point, the episodes) for trial 0 at size n.

        The episodes are drawn through the public API with the seed scheme the
        package README documents, so they are the ones that trial used.
        """
        env_key = crc32(
            json.dumps(config.environment, sort_keys=True, separators=(",", ":")).encode()
        )
        seed = ("episodes", config.master_seed, env_key, n, 0)
        episodes = opeci.sample_episodes(ctx.mdp, ctx.behavior, n, config.max_horizon, seed)
        tuples = opeci.tuples_from_episodes(episodes)
        model = opeci.build_empirical_model(tuples, None, config.kappa, discount=config.discount)
        return opeci.dm_value(model, ctx.target), episodes

    def outputs(self, ctx: Setup, rounds) -> dict:
        """Everything the checks compare, gathered once per run."""
        first = rounds[0].outputs
        config, (n, trial, rows) = first["config"], first["trials"][0]
        points = [(size, *self.dm_point(ctx, config, size)) for size in config.sizes]
        return {
            "reports": [r.outputs["report"] for r in rounds],
            "trials": [r.outputs["trials"] for r in rounds],
            "replay": (rows, opeci.harness.run_single_trial(
                config, ctx.mdp, ctx.target, ctx.behavior, n, trial)),
            "points": points,
        }

    def check(self, ctx: Setup, out: dict) -> list:
        problems = []
        for report, trial_rows in zip(out["reports"], out["trials"]):
            problems += cell_problems(report, trial_rows)
            for _, _, rows in trial_rows:
                problems += bounds_problems(rows)
        captured, replayed = out["replay"]
        if replayed != captured:
            problems.append(f"replayed trial rows {replayed} differ from the run's {captured}")
        return problems + self.check_values(ctx, out)


def _flat_tuples(episodes):
    """(s0, s, a, r, sp) columns flattened from an episode set."""
    rows = [
        (ep.initial_state, st.state, st.action, st.reward, st.next_state)
        for ep in episodes.episodes for st in ep.steps
    ]
    return [np.array(col) for col in zip(*rows)]


class LakeCoverage(CoverageWorkload):
    environment = {"type": "frozen_lake", "slip_prob": 0.25}
    discount = 0.999
    sizes = (10, 200)
    methods = ("dm-boot", "dm-noisy-boot", "hoeffding", "student-t")
    max_horizon = 10_000
    make_mdp = staticmethod(make_lake)

    def check_values(self, ctx: Setup, out: dict) -> list:
        problems = []
        truth = oracles.true_value(ctx.mdp, ctx.target)
        for report in out["reports"]:
            for cell in report.cells:
                if not oracles.close(cell.true_value, truth, 1e-9):
                    problems.append(f"true_value {cell.true_value} != state-level solve {truth}")
        mdp = ctx.mdp
        for n, program, episodes in out["points"]:
            model = oracles.CountModel(mdp.num_states, mdp.num_actions)
            model.add(*_flat_tuples(episodes))
            own, _ = model.solve(np.asarray(ctx.target.probs), mdp.discount)
            if not oracles.close(program, own, 1e-8, 1e-13):
                problems.append(f"n={n}: DM point {program} != count-and-solve {own}")
        return problems


class BanditCoverage(CoverageWorkload):
    environment = {"type": "bernoulli_bandit", "p": 0.5}
    discount = 0.0
    sizes = (500,)
    methods = ("dm-boot",)
    max_horizon = 1
    make_mdp = staticmethod(make_bandit)
    p = 0.5
    # Wide enough that a correct program fails it about once in 10^6 runs.
    coverage_z = 5.0
    width_rtol = 0.05

    def check_values(self, ctx: Setup, out: dict) -> list:
        problems = []
        for report in out["reports"]:
            for cell in report.cells:
                if not oracles.close(cell.true_value, self.p, 1e-12):
                    problems.append(f"true_value {cell.true_value} != p = {self.p}")
        for n, program, episodes in out["points"]:
            mean = float(np.mean(_flat_tuples(episodes)[3]))
            if not oracles.close(program, mean, 1e-12):
                problems.append(f"n={n}: DM point {program} != reward mean {mean}")
        bounds = np.array([
            (lo, hi) for trial_rows in out["trials"] for _, _, rows in trial_rows
            for _, _, lo, hi in rows
        ])
        n = self.sizes[0]
        z = statistics.NormalDist().inv_cdf(1 - ALPHA / 2)
        expected = 2 * z * math.sqrt(self.p * (1 - self.p) / n)
        width = float((bounds[:, 1] - bounds[:, 0]).mean())
        if not oracles.close(width, expected, self.width_rtol):
            problems.append(f"mean width {width} is not within {self.width_rtol:.0%} of {expected}")
        covered = float(((bounds[:, 0] <= self.p) & (self.p <= bounds[:, 1])).mean())
        lo, hi = oracles.wilson_band(covered, len(bounds), self.coverage_z)
        if not lo <= 1 - ALPHA <= hi:
            problems.append(
                f"coverage {covered} over {len(bounds)} trials: its band [{lo}, {hi}] misses 0.9")
        return problems


def call_cli(argv):
    """Run ``opeci.cli.main`` in-process; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = opeci.cli.main(argv)
    return code, perf_counter() - t0, out.getvalue(), err.getvalue()


class LakeLoggedCli:
    """gen-data, five interval commands and one malformed-file call per round."""

    methods = ("is-boot", "dr-boot", "hoeffding", "bernstein", "student-t")
    formula_methods = ("hoeffding", "bernstein", "student-t")

    def __init__(self, episodes: int = 2000, b: int = BOOTSTRAP_B, workdir: Path | None = None):
        self.episodes = episodes
        self.b = b
        self.workdir = workdir

    def setup(self) -> Setup:
        ctx = build_setup(make_lake)
        self.workdir.mkdir(parents=True, exist_ok=True)
        lake = {"map": ["SFFF", "FHFH", "FFFH", "HFFG"], "slip_prob": 0.25, "discount": 0.999}
        (self.workdir / "lake.json").write_text(json.dumps(lake))
        for name, policy in (("target", ctx.target), ("behavior", ctx.behavior)):
            (self.workdir / f"{name}.json").write_text(json.dumps({"probs": policy.probs.tolist()}))
        return ctx

    def prepare(self, ctx: Setup) -> None:
        """A fixed episodes file whose last episode steps from state 99.

        It does not depend on the seed, so the call on it fails the same way
        in every round of every run.
        """
        mdp = ctx.mdp
        step = [0, 2, 0.0, 4, float(ctx.behavior.probs[0, 2]), 0]
        meta = {
            "num_states": mdp.num_states, "num_actions": mdp.num_actions, "discount": mdp.discount,
        }
        lines = [json.dumps({"meta": meta})]
        lines += [json.dumps({"initial_state": 0, "steps": [step]})] * 199
        lines.append(json.dumps({"initial_state": 0, "steps": [[99] + step[1:]]}))
        (self.workdir / "malformed.jsonl").write_text("\n".join(lines) + "\n")

    def warm_up(self, ctx: Setup) -> None:
        """The round's commands on a tiny file, so lazy initialisation is not timed."""
        for _, argv in self.commands(0, episodes=20, b=10):
            call_cli(argv)

    def commands(self, seed: int, episodes: int | None = None, b: int | None = None):
        w = self.workdir
        episodes = episodes or self.episodes
        b = b or self.b
        data = str(w / "episodes.jsonl")
        yield "gen-data", [
            "gen-data", "--mdp", str(w / "lake.json"), "--policy", str(w / "behavior.json"),
            "--episodes", str(episodes), "--horizon", "10000", "--seed", str(seed),
            "--out", data,
        ]
        for method in self.methods:
            yield method, [
                "interval", "--data", data, "--method", method, "--alpha", str(ALPHA),
                "--b", str(b), "--seed", str(seed), "--policy", str(w / "target.json"),
            ]
        yield "malformed", [
            "interval", "--data", str(w / "malformed.jsonl"), "--method", "is-boot",
            "--b", str(b), "--seed", str(seed), "--policy", str(w / "target.json"),
        ]

    def run_commands(self, seed: int):
        """The round's commands, timed together: (wall, [(label, code, seconds, stdout, stderr)])."""
        calls = []
        t0 = perf_counter()
        for label, argv in self.commands(seed):
            calls.append((label, *call_cli(argv)))
        return perf_counter() - t0, calls

    def run_round(self, ctx: Setup, seed: int, k: int) -> Round:
        """Run and check one round, keeping only its exit codes, times and problems.

        The check runs here, outside the timed block, and reads the episodes
        file one episode at a time, so the memory a run holds does not grow
        with its rounds and ``peak_rss_mb`` is the program's.
        """
        wall, calls = self.run_commands(round_seed(seed, k))
        failed = sum(1 for label, code, *_ in calls if code != 0 and not (
            label == "malformed" and code == 1))
        problems = self.check_round(ctx, calls, self.workdir / "episodes.jsonl")
        return Round(wall, len(calls), failed,
                     {"calls": [call[:3] for call in calls], "problems": problems})

    def outputs(self, ctx: Setup, rounds) -> dict:
        return {"problems": [p for r in rounds for p in r.outputs["problems"]]}

    def check(self, ctx: Setup, out: dict) -> list:
        return out["problems"]

    def check_round(self, ctx: Setup, calls, data: Path) -> list:
        """Problems with one round's command results and the episodes file it wrote."""
        problems = []
        _, count, pdis, dr = oracles.file_estimates(data, np.asarray(ctx.target.probs))
        if count != self.episodes:
            problems.append(f"episodes file holds {count} episodes, not {self.episodes}")
        for label, code, _, stdout, stderr in calls:
            if label == "malformed":
                if code == 0:
                    problems.append("interval on a file with state 99 exited 0")
                elif code == 2 and "IndexError" not in stderr:
                    problems.append(
                        f"interval on a file with state 99 failed otherwise: {stderr[-300:]}")
                continue
            if code != 0:
                problems.append(f"{label} exited {code}: {stderr[-300:]}")
                continue
            if label == "gen-data":
                continue
            doc = json.loads(stdout)
            expected = dr if label == "dr-boot" else pdis
            if not oracles.close(doc["point"], expected, 1e-9, 1e-12):
                problems.append(f"{label}: point {doc['point']} != own estimate {expected}")
            if label in self.formula_methods and not doc["lower"] <= doc["point"] <= doc["upper"]:
                problems.append(f"{label}: interval {doc} does not contain its point")
        return problems


WORKLOADS = {
    "lake-dm-coverage": lambda workdir: LakeCoverage(trials=1),
    "bandit-dm-coverage": lambda workdir: BanditCoverage(trials=10),
    "lake-logged-cli": lambda workdir: LakeLoggedCli(workdir=workdir),
}
