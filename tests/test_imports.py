"""The package's import graph: `import hierts` loads a module only when one of its names is used.

Each graph check runs its import statement in a fresh interpreter, since this
process has already loaded the whole package.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hierts

# The package's public names by defining module, in the order of hierts.__all__.
PUBLIC = {
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


def _loaded_after(statement: str) -> set[str]:
    """The hierts submodules (and concurrent.futures and logging) that a fresh interpreter holds after statement."""
    probe = (f"import sys\n{statement}\nimport json\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith('hierts.') or m in ('concurrent.futures', 'logging'))))")
    src = str(Path(hierts.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("hierts.") for m in json.loads(proc.stdout.splitlines()[-1])}


# every agent kind made, acted and updated on one prior, then a short run of the harness, whose 4 instances make a
# lockstep cell; a matrix prior's agents take contexts
AGENTS_ON = ("import numpy as np\n"
             "from hierts import AGENT_KINDS, RunConfig, balanced_tree, make_agent, run_bayes_regret\n"
             "tree = balanced_tree(2, 2)\n"
             "x = None if prior.is_scalar else np.ones(prior.dim)\n"
             "for kind in AGENT_KINDS:\n"
             "    agent = make_agent(kind, tree, prior, np.random.default_rng(0))\n"
             "    agent.update(agent.act(x), 1.0, x)\n"
             "run_bayes_regret(RunConfig(branching=2, height=2, horizon=20, instances=4, seed=0))")
K_ARMED_RUN = ("from hierts import balanced_tree, constant_prior\n"
               "prior = constant_prior(balanced_tree(2, 2), 1.0)\n" + AGENTS_ON)
MATRIX_PRIOR = ("import numpy as np\nfrom hierts import PriorSpec\n"
                "prior = PriorSpec(np.zeros(2), {n: np.eye(2) for n in range(1, 8)}, noise_std=1.0)\n" + AGENTS_ON)


@pytest.mark.parametrize("statement, absent", [
    ("import hierts", None),
    ("from hierts import RunConfig, make_agent, balanced_tree, constant_prior",
     {"checks", "oracle", "harness", "envs", "svgchart", "cli", "linear"}),
    ("import hierts.cli", {"checks", "oracle", "concurrent.futures", "linear", "logging"}),
    ("import hierts; hierts.hierarchy.balanced_tree", {"agents", "config", "envs", "oracle", "posterior"}),
    (K_ARMED_RUN, {"linear", "checks", "oracle"}),
], ids=["package", "setup-names", "cli", "submodule", "k-armed-run"])
def test_import_loads_only_the_modules_used(statement, absent):
    """None stands for every module: `import hierts` alone loads no submodule."""
    loaded = _loaded_after(statement)
    if absent is None:
        assert loaded == set()
    else:
        assert not loaded & absent, sorted(loaded & absent)


def test_a_matrix_prior_loads_the_linear_model():
    """The linear model is imported the first time a matrix prior reaches an agent."""
    assert "linear" in _loaded_after(MATRIX_PRIOR)


def test_public_names_are_the_defining_modules_objects():
    assert hierts.__all__ == [name for names in PUBLIC.values() for name in names]
    assert len(hierts.__all__) == 56
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"hierts.{module}")
        assert getattr(hierts, module) is defining
        for name in names:
            assert getattr(hierts, name) is getattr(defining, name), name
    assert set(hierts.__all__) <= set(dir(hierts))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hierts.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from hierts import no_such_name", {})
