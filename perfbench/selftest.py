"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one traced round of each workload at a tiny size and requires every
check to pass, then perturbs one output at a time and requires the check
that guards it to fail, so that a check which cannot fail is caught.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from dataclasses import replace

import run

run.load_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_round(workload):
    """Set up, run one traced round, and return (ctx, outputs, spans)."""
    ctx = workload.setup()
    workload.prepare(ctx)
    tracer = tracing.Tracer()
    tracer.round = 0
    tracer.install()
    try:
        rnd = workload.run_round(ctx, seed=7, k=0)
    finally:
        tracer.remove()
    return ctx, workload.outputs(ctx, [rnd]), tracer.spans


def expect_failure(label, workload, ctx, out, needle):
    problems = workload.check(ctx, out)
    if not any(needle in p for p in problems):
        raise AssertionError(f"{label}: perturbed output passed (problems: {problems})")
    print(f"ok   {label} is rejected")


def with_cells(report, **changes):
    """The report with each named cell field replaced by ``changes[name](cell)``."""
    return replace(report, cells=tuple(
        replace(c, **{k: fn(c) for k, fn in changes.items()}) for c in report.cells))


def coverage_case(name, workload, perturbations):
    ctx, out, spans = one_round(workload)
    problems = workload.check(ctx, out) + tracing.span_problems(spans)
    assert not problems, problems
    metrics = tracing.layer_metrics(spans, rounds=1)
    metrics.update({"cli.gen_data.ms": 0.0, "cli.interval.p50_ms": 0.0, "trace.overhead_s": 0.0})
    missing = {m["name"] for m in SPEC["per_layer"]} - set(metrics)
    assert not missing, missing
    print(f"ok   {name}: one tiny round passes every check")
    for label, perturb, needle in perturbations:
        bad = copy.deepcopy(out)
        perturb(bad)
        expect_failure(f"{name}: {label}", workload, ctx, bad, needle)
    return spans


def shift_rows(out, fn):
    out["trials"] = [
        [(n, t, [(m, a, *fn(lo, hi)) for m, a, lo, hi in rows]) for n, t, rows in trials]
        for trials in out["trials"]
    ]


def main() -> int:
    lake = workloads.LakeCoverage(trials=1, b=20)
    spans = coverage_case("lake-dm-coverage", lake, [
        ("true value", lambda o: o.update(reports=[
            with_cells(r, true_value=lambda c: c.true_value * (1 + 1e-6)) for r in o["reports"]]),
         "state-level solve"),
        ("DM point", lambda o: o.update(points=[
            (n, p * (1 + 1e-6), e) for n, p, e in o["points"]]), "count-and-solve"),
        ("inverted bounds", lambda o: shift_rows(o, lambda lo, hi: (hi + 1.0, hi)), "not finite"),
        ("cell width", lambda o: o.update(reports=[
            with_cells(r, mean_width=lambda c: c.mean_width * 1.01) for r in o["reports"]]),
         "differ from the rows"),
        ("replayed rows", lambda o: o.update(replay=(o["replay"][0][1:], o["replay"][1])),
         "replayed trial rows"),
    ])
    trial = next(s for s in spans if s[2] == "harness.run_single_trial")
    bad = [list(s) for s in spans]
    child = next(s for s in bad if s[1] == trial[0])
    child[5] = trial[5] + 1.0
    assert any("outside its parent" in p for p in tracing.span_problems(bad))
    print("ok   trace: a child span reaching outside its trial is rejected")
    bad = [list(s) for s in spans]
    for child in [s for s in bad if s[1] == trial[0]][:2]:
        child[4], child[5] = trial[4], trial[5]
    assert any("self time" in p for p in tracing.span_problems(bad))
    print("ok   trace: overlapping children, a negative trial self time, are rejected")

    bandit = workloads.BanditCoverage(trials=10)
    coverage_case("bandit-dm-coverage", bandit, [
        ("true value", lambda o: o.update(reports=[
            with_cells(r, true_value=lambda c: c.true_value + 1e-4) for r in o["reports"]]),
         "!= p"),
        ("DM point", lambda o: o.update(points=[
            (n, p + 1e-4, e) for n, p, e in o["points"]]), "reward mean"),
        ("width", lambda o: shift_rows(o, lambda lo, hi: (lo - 0.004, hi + 0.004)), "mean width"),
        ("coverage", lambda o: shift_rows(o, lambda lo, hi: (lo + 0.5, hi + 0.5)), "misses"),
    ])

    workdir = run.OUT / "selftest-cli"
    cli = workloads.LakeLoggedCli(episodes=50, b=20, workdir=workdir)
    try:
        ctx, out, _ = one_round(cli)
        assert not cli.check(ctx, out), cli.check(ctx, out)
        print("ok   lake-logged-cli: one tiny round passes every check")
        # The same commands again, with their outputs kept for perturbing.
        _, calls = cli.run_commands(workloads.round_seed(7, 0))
        data = workdir / "episodes.jsonl"
        assert not cli.check_round(ctx, calls, data), cli.check_round(ctx, calls, data)
        assert [c[1] for c in calls if c[0] == "malformed"] in ([2], [1]), calls

        def edit_call(label, fn):
            return lambda calls, data: ([fn(c) if c[0] == label else c for c in calls], data)

        def edit_json(key, factor):
            def fn(call):
                doc = json.loads(call[3])
                doc[key] = doc[key] * factor if factor else doc["point"] + 1.0
                return (*call[:3], json.dumps(doc), call[4])
            return fn

        def drop_episode(calls, data):
            short = workdir / "short.jsonl"
            short.write_text("".join(data.read_text().splitlines(keepends=True)[:-1]))
            return calls, short

        for label, perturb, needle in [
            ("exit code", edit_call("student-t", lambda c: (c[0], 1, *c[2:])), "exited 1"),
            ("malformed file accepted", edit_call("malformed", lambda c: (c[0], 0, *c[2:])),
             "exited 0"),
            ("episode count", drop_episode, "episodes file holds"),
            ("PDIS point", edit_call("is-boot", edit_json("point", 1 + 1e-6)), "own estimate"),
            ("DR point", edit_call("dr-boot", edit_json("point", 1 + 1e-6)), "own estimate"),
            ("formula interval", edit_call("hoeffding", edit_json("lower", None)),
             "does not contain"),
        ]:
            problems = cli.check_round(ctx, *perturb(calls, data))
            if not any(needle in p for p in problems):
                raise AssertionError(f"{label}: perturbed output passed (problems: {problems})")
            print(f"ok   lake-logged-cli: {label} is rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
