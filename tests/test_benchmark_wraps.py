"""The package names the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` wraps each name in its ``WRAPS`` table and skips,
without a word, a name the package no longer has; the metric fed by that name
then reads 0.  This list holds every wrap target that resolves today, so a
rename or deletion of one of them fails here instead of blinding a metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

WRAPPED = [
    "opeci.cli.main",
    "opeci.harness.run_coverage_experiment",
    "opeci.harness.run_single_trial",
    "opeci.harness.sample_episodes",
    "opeci.cli.sample_episodes",
    "opeci.optimal_policy",
    "opeci.harness.optimal_policy",
    "opeci.exact_policy_value",
    "opeci.harness.exact_policy_value",
    "opeci.harness.tuples_from_episodes",
    "opeci.harness.augment_noisy_rewards",
    "opeci.harness.build_empirical_model",
    "opeci.empirical.as_generator",
    "opeci.bootstrap.as_generator",
    "opeci.mdp.as_generator",
    "opeci.baselines.dm_q",
    "opeci.harness.bootstrap_replicas",
    "opeci.bootstrap.bootstrap_replicas",
    "opeci.harness.interval_from_replicas",
    "opeci.bootstrap.interval_from_replicas",
    "opeci.harness.per_decision_is",
    "opeci.baselines.per_decision_is",
    "opeci.harness.dr_estimate",
    "opeci.baselines.dr_estimate",
    "opeci.harness.hoeffding_interval",
    "opeci.harness.empirical_bernstein_interval",
    "opeci.harness.student_t_interval",
    "opeci.cli.save_episodes",
    "opeci.cli.load_episodes",
    "opeci.cli.load_mdp",
    "opeci.cli.load_policy",
]


def wrap_targets() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {target for _, _, targets in tracing.WRAPS for target in targets}


def test_listed_names_are_wrap_targets():
    assert len(WRAPPED) == len(set(WRAPPED)) == 31
    assert set(WRAPPED) <= wrap_targets()


@pytest.mark.parametrize("target", WRAPPED)
def test_wrap_target_resolves(target):
    module_name, attr = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), attr, None)), target
