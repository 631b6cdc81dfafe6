"""Hierarchical Thompson sampling for tree-structured Gaussian bandits.

The package bundles the exact recursive posterior over a tree of Gaussian
parameters (scalar and linear rewards), Thompson sampling agents built on
it, a dense joint-Gaussian reference implementation, synthetic and
feature-dataset environments, and an experiment harness with an analytic
Bayes-regret bound.
"""

from .agents import AGENT_KINDS, FlatTSAgent, HierTSAgent, TSAgent, hierts_sample, make_agent
from .checks import (
    lemma_suite,
    linear_oracle_suite,
    run_default_suites,
    scalar_oracle_suite,
)
from .config import RunConfig
from .envs import (
    DatasetError,
    FeatureDataset,
    FitReport,
    Instance,
    best_action,
    dataset_instance,
    fit_priors_from_data,
    load_feature_dataset,
    make_cluster_dataset,
    reward_mean,
    sample_contexts,
    sample_instance,
    sample_parameter_draws,
    step,
    write_dataset_csv,
)
from .harness import (
    BoundReport,
    RatioResult,
    RegretCurve,
    complexity_term,
    dataset_bandit_curve,
    ratio_experiment,
    regret_bound,
    run_bayes_regret,
    ts_complexity_term,
    write_bound_csv,
    write_ratio_csv,
    write_regret_csv,
)
from .hierarchy import (
    ConfigError,
    Hierarchy,
    HierarchyError,
    PriorSpec,
    balanced_tree,
    build_hierarchy,
    constant_prior,
    doubling_prior,
    flatten_hierarchy,
    load_tree_json,
    marginal_prior_variances,
    save_tree_json,
)
from .linear import ConditioningError, LinearPosteriorState
from .oracle import (
    JointGaussian,
    action_marginals,
    condition,
    factorization_flops,
    joint_prior,
    sample_action_values,
)
from .posterior import PosteriorState

__version__ = "0.1.0"
