import numpy as np
import pytest

from hierts import (
    HierTSAgent,
    JointGaussian,
    PosteriorState,
    action_marginals,
    balanced_tree,
    condition,
    constant_prior,
    factorization_flops,
    hierts_sample,
    joint_prior,
    sample_action_values,
)
from hierts.checks import random_linear_prior, random_scalar_prior, random_tree
from hierts.hierarchy import HierarchyError
from hierts.oracle import information_form_marginals


def test_joint_prior_two_leaf_covariance(two_leaf):
    tree, prior = two_leaf
    joint = joint_prior(tree, prior)
    # leaves share the unit root increment, then add their own unit edge
    leaf_cov = joint.cov[1:, 1:]
    assert np.allclose(leaf_cov, np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert joint.cov[0, 0] == pytest.approx(1.0)
    assert np.allclose(joint.mean, 0.0)


def test_joint_prior_marginals_follow_paths():
    tree = balanced_tree(2, 2)
    prior = constant_prior(tree, 1.0)
    joint = joint_prior(tree, prior)
    for leaf in tree.action_nodes:
        b = joint.block(int(leaf))
        assert joint.cov[b, b][0, 0] == pytest.approx(3.0)
    # siblings share root+internal, cousins only the root
    assert joint.cov[joint.block(4), joint.block(5)][0, 0] == pytest.approx(2.0)
    assert joint.cov[joint.block(4), joint.block(6)][0, 0] == pytest.approx(1.0)


def test_condition_reduces_variance_and_orders_means(two_leaf):
    tree, prior = two_leaf
    joint = joint_prior(tree, prior)
    post = condition(joint, [(2, 2.0)], 1.0)
    marg = action_marginals(post)
    assert marg[2][0] > marg[3][0]  # observed high reward lifts its own leaf most
    assert marg[2][1] < 2.0 and marg[3][1] < 2.0
    with pytest.raises(ValueError):
        condition(joint, [(2, 1.0)], 0.0)
    with pytest.raises(HierarchyError):
        condition(joint, [(1, 1.0)], 1.0)


def test_condition_order_invariance(two_leaf):
    tree, prior = two_leaf
    joint = joint_prior(tree, prior)
    obs = [(2, 1.0), (3, -0.5), (2, 0.25)]
    a = condition(joint, obs, 1.0)
    b = condition(joint, list(reversed(obs)), 1.0)
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.cov, b.cov, atol=1e-12)


def test_joint_gaussian_validates_shapes(two_leaf):
    tree, _ = two_leaf
    with pytest.raises(ValueError):
        JointGaussian(hierarchy=tree, node_dim=1, mean=np.zeros(2), cov=np.eye(3))
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        JointGaussian(hierarchy=tree, node_dim=1, mean=np.zeros(3), cov=asym)
    with pytest.raises(ValueError):
        JointGaussian(hierarchy=tree, node_dim=1, mean=np.zeros(3), cov=-np.eye(3))


def test_sample_action_values_moments(two_leaf):
    tree, prior = two_leaf
    joint = condition(joint_prior(tree, prior), [(2, 2.0)], 1.0)
    rng = np.random.default_rng(0)
    draws = sample_action_values(joint, rng, size=200_000)
    assert draws.shape == (200_000, 2)
    marg = action_marginals(joint)
    for j, leaf in enumerate(tree.action_nodes):
        m, v = marg[int(leaf)]
        se_mean = np.sqrt(v / draws.shape[0])
        assert abs(draws[:, j].mean() - m) < 4 * se_mean
        assert abs(draws[:, j].var() - v) < 4 * v * np.sqrt(2.0 / draws.shape[0])
    # cross-leaf covariance survives in the joint draw
    expect_cov = joint.cov[joint.block(2), joint.block(3)][0, 0]
    assert abs(np.cov(draws.T)[0, 1] - expect_cov) < 0.02


def test_dense_and_recursive_samplers_agree_in_distribution():
    """Same posterior, two samplers: moments must match within Monte Carlo error."""
    tree = balanced_tree(2, 2)
    prior = constant_prior(tree, 1.0, noise_std=1.0)
    state = PosteriorState(tree, prior)
    joint = joint_prior(tree, prior)
    history = [(4, 1.2), (4, 0.8), (6, -0.4), (7, 0.1)]
    for leaf, y in history:
        state.update_path(leaf, y)
    joint = condition(joint, history, 1.0)

    n = 100_000
    dense = sample_action_values(joint, np.random.default_rng(1), size=n)
    rec = hierts_sample(state, np.random.default_rng(2), size=n)
    rec_leaves = rec[:, tree.action_nodes]
    marg = action_marginals(joint)
    for j, leaf in enumerate(tree.action_nodes):
        m, v = marg[int(leaf)]
        se = np.sqrt(v / n)
        assert abs(dense[:, j].mean() - rec_leaves[:, j].mean()) < 4 * np.sqrt(2) * se
        assert abs(rec_leaves[:, j].mean() - m) < 4 * se
        assert abs(rec_leaves[:, j].var() - v) < 4 * v * np.sqrt(2.0 / n)
    # sibling correlation through shared ancestors, not just marginals
    sib_dense = np.cov(dense[:, :2].T)[0, 1]
    sib_rec = np.cov(rec_leaves[:, :2].T)[0, 1]
    assert abs(sib_dense - sib_rec) < 0.02


def test_linear_conditioning_matches_batch_regression():
    """A one-node-deep check: conditioning on several rewards of one leaf
    equals ridge regression against that leaf's marginal prior."""
    tree = balanced_tree(2, 1)
    d = 3
    from hierts import PriorSpec

    cov = {n: np.eye(d) * (0.5 if n == 1 else 1.5) for n in range(1, tree.num_nodes + 1)}
    prior = PriorSpec(hyper_mean=np.zeros(d), node_variance=cov, noise_std=0.9)
    joint = joint_prior(tree, prior)
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((6, d))
    ys = rng.standard_normal(6)
    joint = condition(joint, [(2, xs[k], ys[k]) for k in range(6)], 0.81)
    mean, covp = action_marginals(joint)[2]
    s_marg = np.eye(d) * 2.0  # 0.5 root + 1.5 leaf
    lam = np.linalg.inv(s_marg) + xs.T @ xs / 0.81
    expect_cov = np.linalg.inv(lam)
    expect_mean = expect_cov @ (xs.T @ ys / 0.81)
    assert np.allclose(covp, expect_cov, rtol=1e-9, atol=1e-11)
    assert np.allclose(mean, expect_mean, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("m,expect", [(1, 2), (2, 10), (8, 298), (25, 6458)])
def test_factorization_flops_values(m, expect):
    assert factorization_flops(m) == expect


@pytest.mark.parametrize("dim", [None, 2])
def test_information_form_agrees_with_dense_oracle(dim):
    """The two oracles reach the same leaf marginals on a tree with leaves at mixed depths."""
    rng = np.random.default_rng(8)
    tree = random_tree(rng)
    prior = random_scalar_prior(rng, tree) if dim is None else random_linear_prior(rng, tree, dim)
    d = prior.dim
    gram, xy = np.zeros((tree.num_nodes + 1, d, d)), np.zeros((tree.num_nodes + 1, d))
    observations = []
    for _ in range(40):
        leaf = int(rng.choice(tree.action_nodes))
        x, y = rng.standard_normal(d), float(rng.standard_normal())
        observations.append((leaf, y) if dim is None else (leaf, x, y))
        x = np.ones(1) if dim is None else x
        gram[leaf] += np.outer(x, x) / prior.noise_std**2
        xy[leaf] += x * y / prior.noise_std**2
    dense = action_marginals(condition(joint_prior(tree, prior), observations, prior.noise_std**2))
    sparse = information_form_marginals(tree, prior, gram, xy)
    assert dense.keys() == sparse.keys()
    for leaf, (mean, cov) in dense.items():
        assert np.allclose(sparse[leaf][0], mean, rtol=1e-10, atol=1e-12)
        assert np.allclose(sparse[leaf][1], cov, rtol=1e-10, atol=1e-12)
