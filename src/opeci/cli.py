"""Command-line interface.

Exit codes: 0 on success, 1 on validation errors (bad inputs, malformed
files, failed gradient checks), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .errors import ValidationError
from .harness import (
    METHODS, ExperimentConfig, emit_report, method_intervals, run_coverage_experiment,
)
from .io import load_episodes, load_mdp, load_policy, save_episodes
from .mdp import exact_policy_value, sample_episodes, validate
from .sensitivity import check_gradients, counterexample_blowup_probe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opeci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print the exact value of a policy")
    p_eval.add_argument("--mdp", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--gamma", type=float, required=True)

    p_int = sub.add_parser("interval", help="confidence interval from logged episodes")
    p_int.add_argument("--data", required=True, help="episodes file written by gen-data")
    p_int.add_argument("--method", required=True, choices=METHODS)
    p_int.add_argument("--alpha", type=float, default=0.1)
    p_int.add_argument("--b", type=int, default=1000)
    p_int.add_argument("--kappa", type=float, default=0.0)
    p_int.add_argument("--noise-coef", type=float, default=0.25)
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument("--policy", required=True, help="target policy file")
    p_int.add_argument("--gamma", type=float, default=None,
                       help="override the discount recorded in the data file")

    p_cov = sub.add_parser("coverage", help="run a coverage experiment")
    p_cov.add_argument("--config", required=True)
    p_cov.add_argument("--out", required=True)
    p_cov.add_argument("--workers", type=int, default=1)

    p_grad = sub.add_parser("check-grad", help="influence vs finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--cases", type=int, default=20)
    p_grad.add_argument("--tol", type=float, default=1e-3)

    p_probe = sub.add_parser("blowup-probe", help="difference-quotient divergence probe")
    p_probe.add_argument("--N", type=int, required=True)
    p_probe.add_argument("--kappa", type=float, required=True)
    p_probe.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen-data", help="sample logged episodes")
    p_gen.add_argument("--mdp", required=True)
    p_gen.add_argument("--policy", required=True)
    p_gen.add_argument("--episodes", type=int, required=True)
    p_gen.add_argument("--horizon", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    return parser


def _cmd_eval(args) -> int:
    mdp = load_mdp(args.mdp).with_discount(args.gamma)
    problems = validate(mdp)
    if problems:
        raise ValidationError("invalid MDP: " + "; ".join(problems))
    policy = load_policy(args.policy)
    print(f"{exact_policy_value(mdp, policy):.12g}")
    return 0


def _cmd_interval(args) -> int:
    episodes, recorded_gamma = load_episodes(args.data)
    gamma = args.gamma if args.gamma is not None else recorded_gamma
    if gamma is None:
        raise ValidationError("data file records no discount; pass --gamma")
    target = load_policy(args.policy)
    ci = method_intervals(
        args.method, episodes, target, discount=gamma, alphas=(args.alpha,), b=args.b,
        kappa=args.kappa, noise_coef=args.noise_coef, seed=args.seed,
    )[args.alpha]
    print(json.dumps({"lower": ci.lower, "upper": ci.upper, "point": ci.point_estimate}))
    return 0


def _cmd_coverage(args) -> int:
    try:
        doc = json.loads(open(args.config).read())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    config = ExperimentConfig.from_dict(doc)
    report = run_coverage_experiment(config, workers=args.workers)
    emit_report(report, args.out)
    return 0


def _cmd_check_grad(args) -> int:
    report = check_gradients(cases=args.cases, tol=args.tol, rng_seed=args.seed)
    for case in report.cases:
        status = "fail" if case.error or case.max_rel_error >= report.tol else "ok"
        detail = case.error or f"max_rel_error={case.max_rel_error:.3e}"
        print(f"case {case.case_index}: {status} ({detail})")
    if report.passed:
        print(f"PASS: {len(report.cases)} cases under tol={report.tol:g}")
        return 0
    print(f"FAIL: gradient check exceeded tol={report.tol:g}")
    return 1


def _cmd_blowup_probe(args) -> int:
    points = counterexample_blowup_probe(args.N, args.kappa, (0.1, 0.01, 0.001))
    with open(args.out, "w") as fh:
        fh.write("epsilon,quotient,kappa\n")
        for eps, quotient in points:
            fh.write(f"{eps:.6g},{quotient:.6g},{args.kappa:.6g}\n")
    return 0


def _cmd_gen_data(args) -> int:
    mdp = load_mdp(args.mdp)
    problems = validate(mdp)
    if problems:
        raise ValidationError("invalid MDP: " + "; ".join(problems))
    policy = load_policy(args.policy)
    episodes = sample_episodes(mdp, policy, args.episodes, args.horizon, args.seed)
    save_episodes(episodes, args.out, discount=mdp.discount)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "interval": _cmd_interval,
    "coverage": _cmd_coverage,
    "check-grad": _cmd_check_grad,
    "blowup-probe": _cmd_blowup_probe,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
