"""Confidence intervals for off-policy evaluation in tabular MDPs.

The direct method evaluates a target policy inside the empirical MDP built
from logged (s0, s, a, r, s') tuples; the basic (reverse-percentile) bootstrap
turns the (biased) point estimate into calibrated intervals.  kappa-blending
toward priors keeps the estimator smooth in the data distribution, and
reward-noise augmentation counteracts small-sample under-coverage.
Importance-sampling baselines and a coverage harness round out the toolkit.
"""

from .baselines import (
    PerEpisodeEstimates,
    dr_estimate,
    empirical_bernstein_interval,
    hoeffding_interval,
    per_decision_is,
    student_t_interval,
)
from .bootstrap import ConfidenceInterval, quantile
from .dm import (
    dm_bootstrap_replicas,
    dm_q,
    dm_value,
    empirical_on_policy_distribution,
)
from .empirical import (
    EmpiricalModel,
    PriorSpec,
    TupleDataset,
    augment_noisy_rewards,
    build_empirical_model,
    sufficient_noise_scale,
    tuples_from_episodes,
)
from .errors import SolverError, UnvisitedPairError, ValidationError
from .harness import (
    CoverageCell,
    CoverageReport,
    ExperimentConfig,
    emit_report,
    method_intervals,
    read_report,
    run_coverage_experiment,
)
from .mdp import (
    Episode,
    EpisodeSet,
    Policy,
    Step,
    TabularMdp,
    exact_policy_value,
    make_bernoulli_bandit,
    make_counterexample_chain,
    make_frozen_lake,
    make_random_mdp,
    make_random_policy,
    on_policy_distribution,
    optimal_policy,
    perturb_policy_epsilon_greedy,
    q_values,
    sample_episodes,
    uniform_policy,
)
from .sensitivity import (
    GradientCheckReport,
    InfluenceBreakdown,
    check_gradients,
    counterexample_blowup_probe,
    finite_difference_influence,
    influence,
)

__version__ = "0.1.0"
