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
    "envs": ("DatasetError", "FeatureDataset", "FitReport", "Instance", "best_action", "dataset_instance",
             "fit_priors_from_data", "load_feature_dataset", "make_cluster_dataset", "reward_mean",
             "sample_contexts", "sample_instance", "sample_parameter_draws", "step", "write_dataset_csv"),
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
    """The hierts submodules (and concurrent.futures) that a fresh interpreter holds after statement."""
    probe = (f"import sys\n{statement}\nimport json\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hierts.') or m == 'concurrent.futures')))")
    src = str(Path(hierts.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("hierts.") for m in json.loads(proc.stdout.splitlines()[-1])}


@pytest.mark.parametrize("statement, absent", [
    ("import hierts", None),
    ("from hierts import RunConfig, make_agent, balanced_tree, constant_prior",
     {"checks", "oracle", "harness", "envs", "svgchart", "cli"}),
    ("import hierts.cli", {"checks", "oracle", "concurrent.futures"}),
    ("import hierts; hierts.hierarchy.balanced_tree", {"agents", "config", "envs", "oracle", "posterior"}),
], ids=["package", "setup-names", "cli", "submodule"])
def test_import_loads_only_the_modules_used(statement, absent):
    """None stands for every module: `import hierts` alone loads no submodule."""
    loaded = _loaded_after(statement)
    if absent is None:
        assert loaded == set()
    else:
        assert not loaded & absent, sorted(loaded & absent)


def test_public_names_are_the_defining_modules_objects():
    assert hierts.__all__ == [name for names in PUBLIC.values() for name in names]
    assert len(hierts.__all__) == 59
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
