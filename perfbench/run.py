"""Benchmark command for opeci.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the ``src/`` tree of the checkout
it sits in, repeating whole rounds for at least S seconds, checks every
output against computations made apart from the program, and prints one JSON
object as its last line of standard output.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics from a run whose rounds alternate traced and untraced.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the 68-unknown solves gain
# nothing from threads, and thread start-up would only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Set-up is timed once before the first round and twice before each round,
# so its median spans the run as the rounds do.
SETUP_REPEATS = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    src = ROOT / "src"
    if not (src / "opeci" / "__init__.py").is_file():
        fail(f"no opeci sources under {src}")
    sys.path.insert(0, str(src))
    import opeci

    if Path(opeci.__file__).resolve().parent != (src / "opeci").resolve():
        fail(f"imported opeci from {opeci.__file__}, not from {src}")


def timed_setup(workload, setup_times):
    gc.collect()
    t0 = perf_counter()
    ctx = workload.setup()
    setup_times.append(perf_counter() - t0)
    return ctx


def run_rounds(workload, ctx, seed: int, seconds: float, tracer, setup_times):
    """Whole rounds until ``seconds`` have passed, each after timed set-ups.

    With a tracer, each round index runs twice on the same inputs, once
    traced and once not, in alternating order.
    """
    rounds, traced, untraced = [], [], []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        for _ in range(SETUP_REPEATS):
            timed_setup(workload, setup_times)
        modes = [False] if tracer is None else ([False, True] if k % 2 == 0 else [True, False])
        for traced_mode in modes:
            gc.collect()
            if traced_mode:
                tracer.round = k
                tracer.install()
            try:
                rnd = workload.run_round(ctx, seed, k)
            finally:
                if traced_mode:
                    tracer.remove()
            rounds.append(rnd)
            (traced if traced_mode else untraced).append(rnd)
        k += 1
    return rounds, traced, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    load_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = []
        if tracer:
            tracer.install()
        ctx = timed_setup(workload, setup_times)
        if tracer:
            tracer.remove()
        workload.prepare(ctx)
        workload.warm_up(ctx)
        rounds, traced, untraced = run_rounds(
            workload, ctx, args.seed, args.seconds, tracer, setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(ctx, workload.outputs(ctx, rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # Round times come in host-speed phases that outlast a run; the mean
        # moves with the share of rounds in each phase, where the median would
        # jump between phases, so it is the steadier figure from run to run.
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(r.wall_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        problems += tracing.span_problems(tracer.spans)
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values.update(cli_latencies(untraced))
        values["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for t, u in zip(traced, untraced)
        )
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    # gen-data and interval latencies apply to the CLI workload only, so they
    # go to stderr and the result file rather than the metrics line.
    latencies = cli_latencies(untraced)
    if any(latencies.values()):
        print(" ".join(f"{k}={v:.1f}" for k, v in latencies.items()), file=sys.stderr)
    detail = dict(result, rounds=len(rounds), round_walls=[r.wall_s for r in rounds],
                  setup_times=setup_times, untraced_cli_latencies=latencies)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(json.dumps(result))
    return 0


def cli_latencies(rounds) -> dict:
    """gen-data time and median valid ``interval`` latency of untraced CLI rounds."""
    gen, interval = [], []
    for rnd in rounds:
        for label, code, seconds, *_ in rnd.outputs.get("calls", []):
            if label == "gen-data":
                gen.append(seconds)
            elif label != "malformed" and code == 0:
                interval.append(seconds)
    return {
        "cli.gen_data.ms": 1e3 * statistics.median(gen) if gen else 0.0,
        "cli.interval.p50_ms": 1e3 * statistics.median(interval) if interval else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
