"""Spans around the calls into each opeci layer, recorded from outside.

Modules bind imported names at import time, so each public function is
wrapped under every name its callers look it up by (``opeci.harness.dm_value``,
``opeci.bootstrap.resample_tuples``, ...).  A name a later version no longer
has is skipped, and its metrics read 0.  Spans carry their parent's id and
the round they belong to; they stay in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter


def _steps(args, out):
    return sum(len(ep.steps) for ep in out.episodes)


def _system_size(args, out):
    return args[0].num_states * args[0].num_actions


def _trial_size(args, out):
    return args[4]


def _replica_count(args, out):
    return args[2]


def _file_bytes(args, out):
    return os.path.getsize(args[1])


# (span name, what to record about the call, names the callers look it up by)
WRAPS = [
    ("cli.main", None, ["opeci.cli.main"]),
    ("harness.run_coverage_experiment", None, ["opeci.harness.run_coverage_experiment"]),
    ("harness.run_single_trial", _trial_size, ["opeci.harness.run_single_trial"]),
    ("mdp.sample_episodes", _steps, ["opeci.harness.sample_episodes", "opeci.cli.sample_episodes"]),
    ("mdp.optimal_policy", None, ["opeci.optimal_policy", "opeci.harness.optimal_policy"]),
    ("mdp.exact_policy_value", None,
     ["opeci.exact_policy_value", "opeci.harness.exact_policy_value"]),
    ("empirical.tuples_from_episodes", None,
     ["opeci.harness.tuples_from_episodes", "opeci.cli.tuples_from_episodes"]),
    ("empirical.augment_noisy_rewards", None,
     ["opeci.harness.augment_noisy_rewards", "opeci.cli.augment_noisy_rewards"]),
    ("empirical.resample_tuples", None, ["opeci.bootstrap.resample_tuples"]),
    ("empirical.build_empirical_model", None,
     ["opeci.harness.build_empirical_model", "opeci.cli.build_empirical_model"]),
    ("seeding.as_generator", None,
     ["opeci.empirical.as_generator", "opeci.bootstrap.as_generator", "opeci.mdp.as_generator"]),
    ("dm.dm_value", _system_size, ["opeci.harness.dm_value", "opeci.cli.dm_value"]),
    ("dm.dm_q", None, ["opeci.baselines.dm_q"]),
    ("bootstrap.bootstrap_replicas", _replica_count,
     ["opeci.harness.bootstrap_replicas", "opeci.bootstrap.bootstrap_replicas"]),
    ("bootstrap.interval_from_replicas", None,
     ["opeci.harness.interval_from_replicas", "opeci.bootstrap.interval_from_replicas"]),
    ("baselines.per_decision_is", None,
     ["opeci.harness.per_decision_is", "opeci.cli.per_decision_is",
      "opeci.baselines.per_decision_is"]),
    ("baselines.dr_estimate", None, ["opeci.harness.dr_estimate", "opeci.baselines.dr_estimate"]),
    ("baselines.formula_interval", None,
     [f"opeci.{m}.{f}" for m in ("harness", "cli")
      for f in ("hoeffding_interval", "empirical_bernstein_interval", "student_t_interval")]),
    ("io.save_episodes", _file_bytes, ["opeci.cli.save_episodes"]),
    ("io.load_episodes", None, ["opeci.cli.load_episodes"]),
    ("io.load_inputs", None, ["opeci.cli.load_mdp", "opeci.cli.load_policy"]),
]


class Tracer:
    """Records (id, parent, name, round, start, end, info) spans while installed."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []
        self._next_id = 0
        self._installed = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            out, ok = None, False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                detail = None
                if ok and info is not None:
                    try:
                        detail = info(args, out)
                    except (AttributeError, TypeError, IndexError, OSError):
                        detail = None
                spans.append((sid, parent, name, self.round, t0, t1, detail))

        return traced

    def install(self):
        for name, info, targets in WRAPS:
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, info))

    def remove(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child_total = defaultdict(float)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_total[parent] += t1 - t0
    return {sid: (t1 - t0) - child_total[sid] for sid, _, _, _, t0, t1, _ in spans}


def span_problems(spans, tol: float = 1e-9) -> list:
    """Problems where a child span reaches outside its parent or a self time is negative.

    Given both hold, the self times of a trial and of every span beneath it
    add up to the trial's duration, since self time is defined as duration
    minus the children's durations.  Time a trial spends outside the
    wrapped functions shows as its own self time, ``harness.run_single_trial.self_ms``.
    """
    by_id = {span[0]: span for span in spans}
    problems = []
    for sid, parent, name, _, t0, t1, _ in spans:
        if parent is not None and (t0 < by_id[parent][4] or t1 > by_id[parent][5]):
            problems.append(f"span {sid} ({name}) lies outside its parent {parent}")
    for sid, own in self_times(spans).items():
        if own < -tol:
            problems.append(f"span {sid} ({by_id[sid][2]}) has self time {own} < 0")
    return problems


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics over the traced rounds.

    ``.ms`` / ``.us`` are mean durations per call, ``.self_ms`` / the
    resample and as_generator ``.us`` are mean self times per call, and
    ``.calls`` / ``mdp.steps`` / ``bootstrap.replicas`` are totals per round.
    A layer the workload does not call reads 0.
    """
    selfs = self_times(spans)
    dur, own, info = defaultdict(list), defaultdict(list), defaultdict(list)
    for sid, _, name, _, t0, t1, detail in spans:
        dur[name].append(t1 - t0)
        own[name].append(selfs[sid])
        info[name].append(detail)

    def mean(xs, scale):
        return scale * statistics.fmean(xs) if xs else 0.0

    def per_round(name):
        return len(dur[name]) / rounds

    trial_by_n = defaultdict(list)
    for d, n in zip(dur["harness.run_single_trial"], info["harness.run_single_trial"]):
        trial_by_n[n].append(d)
    steps = [x for x in info["mdp.sample_episodes"] if x is not None]
    sizes = [x for x in info["dm.dm_value"] if x is not None]
    saved = [x for x in info["io.save_episodes"] if x is not None]
    replicas = [x for x in info["bootstrap.bootstrap_replicas"] if x is not None]
    sample_s = sum(dur["mdp.sample_episodes"])
    return {
        "mdp.sample_episodes.ms": mean(dur["mdp.sample_episodes"], 1e3),
        "mdp.steps": sum(steps) / rounds,
        "mdp.us_per_step": 1e6 * sample_s / sum(steps) if steps and sum(steps) else 0.0,
        "mdp.optimal_policy.ms": mean(dur["mdp.optimal_policy"], 1e3),
        "mdp.exact_policy_value.ms": mean(dur["mdp.exact_policy_value"], 1e3),
        "empirical.tuples_from_episodes.ms": mean(dur["empirical.tuples_from_episodes"], 1e3),
        "empirical.augment_noisy_rewards.ms": mean(dur["empirical.augment_noisy_rewards"], 1e3),
        "empirical.resample_tuples.calls": per_round("empirical.resample_tuples"),
        "empirical.resample_tuples.us": mean(own["empirical.resample_tuples"], 1e6),
        "seeding.as_generator.calls": per_round("seeding.as_generator"),
        "seeding.as_generator.us": mean(own["seeding.as_generator"], 1e6),
        "empirical.build_empirical_model.calls": per_round("empirical.build_empirical_model"),
        "empirical.build_empirical_model.us": mean(dur["empirical.build_empirical_model"], 1e6),
        "dm.dm_value.calls": per_round("dm.dm_value"),
        "dm.dm_value.us": mean(dur["dm.dm_value"], 1e6),
        "dm.system_size": float(max(sizes)) if sizes else 0.0,
        "dm.dm_q.ms": mean(dur["dm.dm_q"], 1e3),
        "bootstrap.replicas": sum(replicas) / rounds,
        "bootstrap.bootstrap_replicas.self_ms": mean(own["bootstrap.bootstrap_replicas"], 1e3),
        "bootstrap.interval_from_replicas.us": mean(dur["bootstrap.interval_from_replicas"], 1e6),
        "baselines.per_decision_is.ms": mean(dur["baselines.per_decision_is"], 1e3),
        "baselines.dr_estimate.ms": mean(dur["baselines.dr_estimate"], 1e3),
        "baselines.formula_interval.us": mean(dur["baselines.formula_interval"], 1e6),
        "harness.trial.n10.ms": mean(trial_by_n[10], 1e3),
        "harness.trial.n200.ms": mean(trial_by_n[200], 1e3),
        "harness.trial.n500.ms": mean(trial_by_n[500], 1e3),
        "harness.run_single_trial.self_ms": mean(own["harness.run_single_trial"], 1e3),
        "harness.aggregate_ms": mean(own["harness.run_coverage_experiment"], 1e3),
        "io.save_episodes.ms": mean(dur["io.save_episodes"], 1e3),
        "io.load_episodes.ms": mean(dur["io.load_episodes"], 1e3),
        "io.episodes_bytes": statistics.fmean(saved) if saved else 0.0,
        "cli.main.self_ms": mean(own["cli.main"], 1e3),
    }
