"""Hierarchical Thompson sampling for tree-structured Gaussian bandits.

The package bundles the exact recursive posterior over a tree of Gaussian
parameters (scalar and linear rewards), Thompson sampling agents built on
it, a dense joint-Gaussian reference implementation, synthetic and
feature-dataset environments, and an experiment harness with an analytic
Bayes-regret bound.

`import hierts` loads none of the package's modules: each public name below,
and each module that defines one, is imported the first time it is used
(PEP 562), so a caller pays only for the modules it reaches. `from hierts
import RunConfig, make_agent` loads config, agents, hierarchy and posterior,
not the linear model, the oracle, the checks, the harness or the CLI; agents
imports linear the first time a matrix prior reaches it. `hierts.cli`
keeps its own module-level names for the harness, loader and chart functions
it calls, which a caller can patch there.
"""

from importlib import import_module as _import_module

# Public names by the module that defines them, in the order of __all__.
_EXPORTS = {
    "agents": ("AGENT_KINDS", "FlatTSAgent", "HierTSAgent", "TSAgent", "hierts_sample", "make_agent"),
    "checks": ("lemma_suite", "linear_oracle_suite", "run_default_suites", "scalar_oracle_suite"),
    "config": ("RunConfig",),
    "envs": ("DatasetError", "FeatureDataset", "Instance", "dataset_instance", "fit_priors_from_data",
             "load_feature_dataset", "make_cluster_dataset", "sample_contexts", "sample_instance",
             "sample_parameter_draws", "step", "write_dataset_csv"),
    "harness": ("BoundReport", "RatioResult", "RegretCurve", "complexity_term", "dataset_bandit_curve",
                "ratio_experiment", "regret_bound", "run_bayes_regret", "ts_complexity_term", "write_bound_csv",
                "write_ratio_csv", "write_regret_csv"),
    "hierarchy": ("ConfigError", "Hierarchy", "HierarchyError", "PriorSpec", "balanced_tree", "build_hierarchy",
                  "constant_prior", "doubling_prior", "flatten_hierarchy", "load_tree_json",
                  "marginal_prior_variances", "save_tree_json"),
    "linear": ("ConditioningError", "LinearPosteriorState"),
    "oracle": ("JointGaussian", "action_marginals", "condition", "factorization_flops", "joint_prior",
               "sample_action_values"),
    "posterior": ("PosteriorState",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import name's module on first use and keep the name here, so later lookups are plain."""
    if name in _EXPORTS:  # a submodule, reachable as hierts.<module> without its own import
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
