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
from .io import load_mdp, load_policy, policy_from_doc, read_json
from .mdp import (
    DEFAULT_LAKE_MAP,
    Policy,
    TabularMdp,
    exact_policy_value,
    make_bernoulli_bandit,
    make_counterexample_chain,
    make_frozen_lake,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    sample_episodes,
    validate,
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float) and math.isfinite(x)


def _list_of(is_item):
    return lambda x: isinstance(x, (list, tuple)) and all(map(is_item, x))


# The JSON kind of each config field; booleans are not numbers.
_FIELD_KINDS = {
    "environment": (lambda x: isinstance(x, dict), "an object"),
    "discount": (_is_number, "a finite number"),
    "sizes": (_list_of(_is_int), "a list of integers"),
    "methods": (_list_of(lambda m: isinstance(m, str)), "a list of strings"),
    "alphas": (_list_of(_is_number), "a list of finite numbers"),
    "target_policy": (lambda x: isinstance(x, (str, dict)), "a string or an object"),
    "behavior_epsilon": (_is_number, "a finite number"),
    "trials": (_is_int, "an integer"),
    "bootstrap_b": (_is_int, "an integer"),
    "kappa": (_is_number, "a finite number"),
    "noise_coef": (_is_number, "a finite number"),
    "master_seed": (_is_int, "an integer"),
    "max_horizon": (_is_int, "an integer"),
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
        for name, (is_kind, kind) in _FIELD_KINDS.items():
            if not is_kind(getattr(self, name)):
                raise ValidationError(f"config field {name} must be {kind}")
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


def validate_config(config: ExperimentConfig) -> None:
    if config.trials < 1:
        raise ValidationError("trials must be >= 1")
    if not config.sizes or any(n < 1 for n in config.sizes):
        raise ValidationError("sizes must be positive episode counts")
    if any(not 0.0 < a < 1.0 for a in config.alphas):
        raise ValidationError("alphas must lie in (0, 1)")
    unknown = [m for m in config.methods if m not in METHODS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}; expected a subset of {METHODS}")
    if config.bootstrap_b < 2 and any(m.endswith("-boot") for m in config.methods):
        raise ValidationError("bootstrap_b must be >= 2")
    if not 0.0 <= config.behavior_epsilon <= 1.0:
        raise ValidationError("behavior_epsilon must lie in [0, 1]")
    if config.kappa < 0:
        raise ValidationError("kappa must be >= 0")
    if config.max_horizon < 1:
        raise ValidationError("max_horizon must be >= 1")
    if not 0.0 <= config.discount < 1.0:
        raise ValidationError("discount must lie in [0, 1)")


def build_environment(config: ExperimentConfig) -> TabularMdp:
    spec = dict(config.environment)
    kind = spec.get("type")
    if kind == "frozen_lake":
        return make_frozen_lake(
            slip_prob=spec.get("slip_prob", 0.25),
            grid=spec.get("map", DEFAULT_LAKE_MAP),
            discount=config.discount,
        )
    if kind == "chain":
        return make_counterexample_chain(int(spec["n_intermediate"]), config.discount)
    if kind == "bernoulli_bandit":
        return make_bernoulli_bandit(spec.get("p", 0.5)).with_discount(config.discount)
    if kind == "file":
        return load_mdp(spec["path"]).with_discount(config.discount)
    raise ValidationError(f"unknown environment type {kind!r}")


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


_WORKER_CACHE: dict = {}


def _trial_task(args):
    config_json, n, trial = args
    ctx = _WORKER_CACHE.get(config_json)
    if ctx is None:
        config = ExperimentConfig.from_dict(json.loads(config_json))
        mdp = build_environment(config)
        target = resolve_target(mdp, config)
        behavior = perturb_policy_epsilon_greedy(target, config.behavior_epsilon)
        ctx = (config, mdp, target, behavior)
        _WORKER_CACHE[config_json] = ctx
    config, mdp, target, behavior = ctx
    return run_single_trial(config, mdp, target, behavior, n, trial)


def run_coverage_experiment(config: ExperimentConfig, workers: int = 1) -> CoverageReport:
    """Execute the full coverage protocol.

    Deterministic end-to-end given the master seed, for any ``workers``
    count: trials are independent units keyed by derived seeds, and
    aggregation reduces in a fixed (method, n, alpha, trial) order.
    """
    validate_config(config)
    mdp = build_environment(config)
    problems = validate(mdp)
    if problems:
        raise ValidationError("invalid environment: " + "; ".join(problems))
    target = resolve_target(mdp, config)
    behavior = perturb_policy_epsilon_greedy(target, config.behavior_epsilon)
    true_value = exact_policy_value(mdp, target)

    tasks = [(n, k) for n in config.sizes for k in range(config.trials)]
    if workers > 1:
        config_json = json.dumps(config.to_dict(), sort_keys=True)
        args = [(config_json, n, k) for n, k in tasks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, args, chunksize=max(1, len(args) // (8 * workers))))
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
        "seed_scheme": "SeedSequence entropy: (label, master_seed, env_crc32, n, trial[, method, replica])",
        "cells": [asdict(c) for c in report.cells],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def read_report(path) -> CoverageReport:
    """Reconstruct a report from the sidecar written by emit_report."""
    doc = read_json(str(path) + ".json", "report sidecar")
    cells = tuple(CoverageCell(**c) for c in doc["cells"])
    return CoverageReport(cells=cells, config=ExperimentConfig.from_dict(doc["config"]))
