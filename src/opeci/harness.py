"""Coverage-measurement harness: seeded, parallel, reproducible.

A coverage experiment repeatedly samples logged datasets from a behavior
policy, computes confidence intervals for the target policy's value with each
configured method, and reports how often the intervals contain the exact
value.  Trial seeds derive from (master seed, environment, size, trial index)
and method seeds additionally from the method tag, so results are identical
for any worker count and unaffected by adding or removing methods.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from zlib import crc32

import numpy as np

from .baselines import (
    dr_estimate,
    empirical_bernstein_interval,
    hoeffding_interval,
    per_decision_is,
    student_t_interval,
)
from .bootstrap import bootstrap_replicas, interval_from_replicas
from .dm import dm_bootstrap_replicas
from .empirical import augment_noisy_rewards, build_empirical_model, tuples_from_episodes
from .errors import ValidationError
from .io import (
    INTEGERS, NUMBERS, STRINGS, check_kinds, load_mdp, load_policy, policy_from_doc, read_json,
)
from .mdp import (
    DEFAULT_LAKE_MAP,
    Policy,
    TabularMdp,
    check_discount,
    exact_policy_value,
    make_bernoulli_bandit,
    make_counterexample_chain,
    make_frozen_lake,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    sample_episodes,
)

METHODS = (
    "dm-boot",
    "dm-noisy-boot",
    "is-boot",
    "dr-boot",
    "hoeffding",
    "bernstein",
    "student-t",
)


# Each config field's JSON kinds, list depth, range test (None for none;
# every test fails on NaN) and description.  Booleans are not numbers, and the
# discount's range is ``check_discount``'s.
_FIELDS = {
    "environment": (frozenset({dict}), 0, None, "an object"),
    "discount": (NUMBERS, 0, None, "a number"),
    "sizes": (INTEGERS, 1, lambda ns: len(ns) > 0 and min(ns) >= 1,
              "a non-empty list of positive integers"),
    "methods": (STRINGS, 1, lambda ms: set(ms) <= set(METHODS), f"a list of tags from {METHODS}"),
    "alphas": (NUMBERS, 1, lambda xs: all(0.0 < x < 1.0 for x in xs),
               "a list of numbers in (0, 1)"),
    "target_policy": (frozenset({str, dict}), 0, None, "a string or an object"),
    "behavior_epsilon": (NUMBERS, 0, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]"),
    "trials": (INTEGERS, 0, lambda x: x >= 1, "a positive integer"),
    "bootstrap_b": (INTEGERS, 0, None, "an integer"),
    "kappa": (NUMBERS, 0, lambda x: 0.0 <= x < math.inf, "a finite number >= 0"),
    "noise_coef": (NUMBERS, 0, lambda x: 0.0 <= x < math.inf, "a finite number >= 0"),
    "master_seed": (INTEGERS, 0, None, "an integer"),
    "max_horizon": (INTEGERS, 0, lambda x: x >= 1, "a positive integer"),
}

# Each environment type's fields: JSON kinds, list depth and whether the
# field is required.  The environment constructors check the ranges.
_ENVIRONMENTS = {
    "frozen_lake": {"slip_prob": (NUMBERS, 0, False), "map": (STRINGS, 1, False)},
    "chain": {"n_intermediate": (INTEGERS, 0, True)},
    "bernoulli_bandit": {"p": (NUMBERS, 0, False)},
    "file": {"path": (STRINGS, 0, True)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    environment: dict
    discount: float
    sizes: tuple  # episode counts
    methods: tuple = METHODS
    alphas: tuple = (0.1,)
    target_policy: object = "optimal"
    behavior_epsilon: float = 0.2
    trials: int = 200
    bootstrap_b: int = 1000
    kappa: float = 0.0
    noise_coef: float = 0.25
    master_seed: int = 0
    max_horizon: int = 10000

    def __post_init__(self):
        for name, (kinds, depth, in_range, description) in _FIELDS.items():
            what = f"config field {name}"
            value = check_kinds(getattr(self, name), kinds, what, depth, must=description)
            if in_range is not None and not in_range(value):
                raise ValidationError(f"{what} must be {description}")
        check_discount(self.discount)
        if self.bootstrap_b < 2 and any(m.endswith("-boot") for m in self.methods):
            raise ValidationError("config field bootstrap_b must be >= 2 for bootstrap methods")
        kind = self.environment.get("type")
        if not isinstance(kind, str) or kind not in _ENVIRONMENTS:
            raise ValidationError(
                f"config field environment has type {kind!r}, not one of {sorted(_ENVIRONMENTS)}"
            )
        for name, (kinds, depth, required) in _ENVIRONMENTS[kind].items():
            if name in self.environment:
                check_kinds(self.environment[name], kinds, f"environment field {name}", depth)
            elif required:
                raise ValidationError(f"environment field {name} is required for type {kind}")
        for name in ("sizes", "methods", "alphas"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValidationError(f"config must be a JSON object, not {type(doc).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"invalid config: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


def build_environment(config: ExperimentConfig) -> TabularMdp:
    spec = config.environment
    kind = spec["type"]
    if kind == "frozen_lake":
        return make_frozen_lake(
            slip_prob=spec.get("slip_prob", 0.25),
            grid=spec.get("map", DEFAULT_LAKE_MAP),
            discount=config.discount,
        )
    if kind == "chain":
        return make_counterexample_chain(spec["n_intermediate"], config.discount)
    if kind == "bernoulli_bandit":
        return make_bernoulli_bandit(spec.get("p", 0.5)).with_discount(config.discount)
    return load_mdp(spec["path"]).with_discount(config.discount)


def resolve_target(mdp: TabularMdp, config: ExperimentConfig) -> Policy:
    spec = config.target_policy
    if spec == "optimal":
        return optimal_policy(mdp)
    if isinstance(spec, dict) and "path" in spec:
        return load_policy(spec["path"])
    if isinstance(spec, dict) and "probs" in spec:
        return policy_from_doc(spec, "target_policy")
    raise ValidationError(f"cannot resolve target policy from {spec!r}")


def _environment_key(config: ExperimentConfig) -> int:
    canonical = json.dumps(config.environment, sort_keys=True, separators=(",", ":"))
    return crc32(canonical.encode("utf-8"))


@dataclass(frozen=True)
class CoverageCell:
    method: str
    n: int
    alpha: float
    coverage: float
    mean_width: float
    median_lower: float
    median_upper: float
    trials: int
    true_value: float


@dataclass(frozen=True)
class CoverageReport:
    cells: tuple  # tuple[CoverageCell, ...]
    config: ExperimentConfig

    def cell(self, method: str, n: int, alpha: float) -> CoverageCell:
        for c in self.cells:
            if c.method == method and c.n == n and abs(c.alpha - alpha) < 1e-12:
                return c
        raise KeyError((method, n, alpha))


def method_intervals(
    method, episodes, target, *, discount, alphas, b, kappa, noise_coef, seed
) -> dict:
    """{alpha: ConfidenceInterval} from one interval method on logged episodes.

    The one dispatch over ``METHODS``, for the coverage harness and ``opeci
    interval`` alike; bootstrap replicas are shared across alphas.
    Estimators are looked up by name in this module at call time.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if not all(0.0 < a < 1.0 for a in alphas):
        raise ValidationError(f"alpha must lie in (0, 1), not {alphas!r}")
    if method in ("dm-boot", "dm-noisy-boot"):
        data = tuples_from_episodes(episodes)
        if method == "dm-noisy-boot":
            data = augment_noisy_rewards(data, noise_coef * float(np.std(data.r)))
        point, diffs = dm_bootstrap_replicas(data, target, b, seed, kappa=kappa, discount=discount)
    elif method == "is-boot":
        values = per_decision_is(episodes, target, discount).values
        point, diffs = bootstrap_replicas(values, np.mean, b, seed)
    elif method == "dr-boot":
        model = build_empirical_model(
            tuples_from_episodes(episodes), None, kappa, discount=discount
        )
        values = dr_estimate(episodes, target, model, discount).values
        point, diffs = bootstrap_replicas(values, np.mean, b, seed)
    else:
        formula = {
            "hoeffding": hoeffding_interval,
            "bernstein": empirical_bernstein_interval,
            "student-t": student_t_interval,
        }[method]
        est = per_decision_is(episodes, target, discount)
        return {a: formula(est, a) for a in alphas}
    return {a: interval_from_replicas(point, diffs, a) for a in alphas}


def run_single_trial(config: ExperimentConfig, mdp, target, behavior, n: int, trial: int):
    """Rows [(method, alpha, lower, upper), ...] for one sampled dataset.

    Exposed so any trial can be replayed in isolation from the config alone.
    """
    env_key = _environment_key(config)
    episodes = sample_episodes(
        mdp, behavior, n, config.max_horizon,
        ("episodes", config.master_seed, env_key, n, trial),
    )
    rows = []
    for method in config.methods:
        intervals = method_intervals(
            method, episodes, target,
            discount=config.discount, alphas=config.alphas, b=config.bootstrap_b,
            kappa=config.kappa, noise_coef=config.noise_coef,
            seed=("interval", config.master_seed, env_key, n, trial, method),
        )
        rows.extend((method, a, intervals[a].lower, intervals[a].upper) for a in config.alphas)
    return rows


_context: tuple = ()  # a worker's (config, mdp, target, behavior)


def _set_context(context: tuple) -> None:
    global _context
    _context = context


def _run_trial(task: tuple):
    return run_single_trial(*_context, *task)


def run_coverage_experiment(config: ExperimentConfig, workers: int = 1) -> CoverageReport:
    """Execute the full coverage protocol.

    Deterministic end-to-end given the master seed, for any ``workers``
    count: trials are independent units keyed by derived seeds, and
    aggregation reduces in a fixed (method, n, alpha, trial) order.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, not {workers}")
    mdp = build_environment(config)
    target = resolve_target(mdp, config)
    behavior = perturb_policy_epsilon_greedy(target, config.behavior_epsilon)
    true_value = exact_policy_value(mdp, target)

    tasks = [(n, k) for n in config.sizes for k in range(config.trials)]
    workers = min(workers, len(tasks))  # a pool starts all its processes at once
    if workers > 1:
        # Each worker receives the built context once, not once per chunk of tasks.
        context = (config, mdp, target, behavior)
        with ProcessPoolExecutor(workers, initializer=_set_context, initargs=(context,)) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        results = [run_single_trial(config, mdp, target, behavior, n, k) for n, k in tasks]

    by_cell: dict = {
        (m, n, a): [] for m in config.methods for n in config.sizes for a in config.alphas
    }
    for (n, _), rows in zip(tasks, results):
        for method, alpha, lower, upper in rows:
            by_cell[(method, n, alpha)].append((lower, upper))

    cells = []
    for method in config.methods:
        for n in config.sizes:
            for alpha in config.alphas:
                bounds = np.array(by_cell[(method, n, alpha)])
                lows, highs = bounds[:, 0], bounds[:, 1]
                covered = int(((lows <= true_value) & (true_value <= highs)).sum())
                cells.append(
                    CoverageCell(
                        method=method,
                        n=n,
                        alpha=alpha,
                        coverage=covered / config.trials,
                        mean_width=float((highs - lows).mean()),
                        median_lower=float(np.median(lows)),
                        median_upper=float(np.median(highs)),
                        trials=config.trials,
                        true_value=true_value,
                    )
                )
    return CoverageReport(cells=tuple(cells), config=config)


_CSV_HEADER = "method,n,alpha,coverage,mean_width,trials,true_value"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_report(report: CoverageReport, path) -> None:
    """Write the pinned CSV plus a JSON sidecar (<path>.json) holding the
    full config and full-precision cells for exact reproduction."""
    lines = [_CSV_HEADER]
    for c in report.cells:
        lines.append(
            f"{c.method},{c.n},{_fmt(c.alpha)},{_fmt(c.coverage)},"
            f"{_fmt(c.mean_width)},{c.trials},{_fmt(c.true_value)}"
        )
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "config": report.config.to_dict(),
        "seed_scheme": 'SeedSequence entropy: (label, master_seed, env_crc32, n, trial[, method, "multinomial"|"indices"])',
        "cells": [asdict(c) for c in report.cells],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def read_report(path) -> CoverageReport:
    """Reconstruct a report from the sidecar written by emit_report."""
    doc = read_json(str(path) + ".json", "report sidecar")
    cells = tuple(CoverageCell(**c) for c in doc["cells"])
    return CoverageReport(cells=cells, config=ExperimentConfig.from_dict(doc["config"]))
