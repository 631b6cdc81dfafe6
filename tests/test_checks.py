import numpy as np
import pytest

from hierts import (
    LinearPosteriorState,
    PosteriorState,
    action_marginals,
    balanced_tree,
    condition,
    joint_prior,
    lemma_suite,
    linear_oracle_suite,
    run_default_suites,
    scalar_oracle_suite,
)
from hierts.checks import ORACLE_RTOL, _deviation, random_scalar_prior, random_linear_prior, random_tree


def _observe(state, rng, updates):
    """Feed the state random rewards (with standard normal contexts if linear); returns the observations."""
    observations = []
    for _ in range(updates):
        leaf = int(rng.choice(state.hierarchy.action_nodes))
        context = () if state.prior.is_scalar else (rng.standard_normal(state.prior.dim),)
        reward = float(rng.normal(0.0, 2.0))
        state.update_path(leaf, reward, *context)
        observations.append((leaf, *context, reward))
    return observations


def _worst_oracle_deviation(state, observations):
    """Largest relative deviation of the state's leaf marginals from the dense oracle's."""
    tree, prior = state.hierarchy, state.prior
    marginals = action_marginals(condition(joint_prior(tree, prior), observations, prior.noise_std**2))
    return max(
        _deviation(got, want)[1]
        for leaf in tree.action_nodes
        for got, want in zip(state.marginal_action_moments(int(leaf)), marginals[int(leaf)])
    )


def test_random_tree_respects_budgets():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_levels=4, max_nodes=32)
        assert tree.num_nodes <= 32
        assert tree.tree_height <= 3
        assert tree.num_actions >= 2


def test_random_priors_are_valid():
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    scalar = random_scalar_prior(rng, tree)
    assert scalar.is_scalar and scalar.noise_std > 0
    linear = random_linear_prior(rng, tree, dim=3)
    assert not linear.is_scalar and linear.dim == 3
    for node in range(1, tree.num_nodes + 1):
        assert np.linalg.eigvalsh(linear.node_variance[node]).min() > 0


def test_small_scalar_suite_passes():
    mean_check, var_check = scalar_oracle_suite(cases=10, base_seed=3)
    assert mean_check.passed and var_check.passed
    assert mean_check.cases == 10
    assert mean_check.max_rel_dev < mean_check.tolerance
    assert "ok" in mean_check.describe()


def test_small_linear_suite_passes():
    mean_check, cov_check = linear_oracle_suite(cases=6, base_seed=3)
    assert mean_check.passed and cov_check.passed
    assert cov_check.max_rel_dev < cov_check.tolerance


def test_small_lemma_suite_passes():
    dec, gain, scale = lemma_suite(runs=4, horizon=40, base_seed=3)
    for check in (dec, gain, scale):
        assert check.passed, check.describe()
    assert dec.max_abs_dev < dec.tolerance


def test_root_mean_fault_is_detected(fault_root_mean):
    fault_root_mean(PosteriorState)
    fault_root_mean(LinearPosteriorState)
    mean_check, var_check = scalar_oracle_suite(cases=5, base_seed=0)
    assert not mean_check.passed  # a shifted root mean shifts every leaf mean
    assert var_check.passed  # but leaves variances untouched
    assert mean_check.failing_cases  # replay pointers survive
    lmean, lcov = linear_oracle_suite(cases=4, base_seed=0)
    assert not lmean.passed and lcov.passed


@pytest.mark.parametrize("field", ["lamhat", "root_mean"])
def test_scalar_marginals_read_the_cached_conditionals(field):
    """The marginals compose what hierts_sample reads, so a fault there leaves the dense oracle."""
    rng = np.random.default_rng(2)
    tree = balanced_tree(3, 2)
    state = PosteriorState(tree, random_scalar_prior(rng, tree))
    observations = _observe(state, rng, 30)
    assert _worst_oracle_deviation(state, observations) < ORACLE_RTOL
    if field == "lamhat":
        state.lamhat[2] *= 1.0 + 1e-6  # the float that the float draw reads: internal node 2, parent of leaves 5..7
    else:
        state.root_mean += 1e-6
    assert _worst_oracle_deviation(state, observations) > ORACLE_RTOL


@pytest.mark.parametrize("b, h, dim", [(2, 8, None), (16, 2, None), (16, 2, 2)], ids=["b2h8", "b16h2", "b16h2-d2"])
def test_deep_and_wide_trees_match_dense_oracle(b, h, dim):
    """300 updates on a deep (511 nodes) or wide (273 nodes) tree stay within ORACLE_RTOL of the dense oracle."""
    rng = np.random.default_rng(h)
    tree = balanced_tree(b, h)
    if dim is None:
        state = PosteriorState(tree, random_scalar_prior(rng, tree))
    else:
        state = LinearPosteriorState(tree, random_linear_prior(rng, tree, dim))
    observations = _observe(state, rng, 300)
    assert _worst_oracle_deviation(state, observations) < ORACLE_RTOL


def test_run_default_suites_report(fault_root_mean):
    report = run_default_suites(base_seed=5, scalar_cases=6, linear_cases=3, lemma_runs=2, horizon=25)
    assert report.passed
    assert len(report.results) == 7
    text = report.describe()
    assert "suite result: PASS" in text
    fault_root_mean(PosteriorState, offset=1e-2)
    bad = run_default_suites(base_seed=5, scalar_cases=4, linear_cases=0, lemma_runs=0)
    assert not bad.passed
    assert "replay" in bad.describe() and "base_seed=5" in bad.describe()


def test_suites_are_reproducible():
    a = scalar_oracle_suite(cases=5, base_seed=11)
    b = scalar_oracle_suite(cases=5, base_seed=11)
    assert a == b
    c = scalar_oracle_suite(cases=5, base_seed=12)
    assert c[0].max_abs_dev != a[0].max_abs_dev
