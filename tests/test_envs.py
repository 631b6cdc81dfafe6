import logging
import re

import numpy as np
import pytest

from hierts import (
    DatasetError,
    FeatureDataset,
    Instance,
    PriorSpec,
    balanced_tree,
    build_hierarchy,
    constant_prior,
    dataset_instance,
    doubling_prior,
    fit_priors_from_data,
    load_feature_dataset,
    make_cluster_dataset,
    marginal_prior_variances,
    sample_contexts,
    sample_instance,
    sample_parameter_draws,
    step,
    write_dataset_csv,
)
from hierts.envs import COVARIANCE_FLOOR
from hierts.hierarchy import HierarchyError


def test_sample_parameter_draws_moments(b2h2):
    prior = doubling_prior(b2h2)
    draws = sample_parameter_draws(b2h2, prior, np.random.default_rng(0), size=200_000)
    assert draws.shape == (200_000, 8)
    leaf = draws[:, 4]
    assert abs(leaf.mean()) < 0.03
    assert abs(leaf.var() - marginal_prior_variances(b2h2, prior)[4]) < 0.08
    # increments at each edge are independent of the parent level
    inc = draws[:, 4] - draws[:, 2]
    assert abs(inc.var() - 1.0) < 0.02
    assert abs(np.cov(inc, draws[:, 2])[0, 1]) < 0.02


def test_sample_parameter_draws_linear(b2h2, linear_prior):
    draws = sample_parameter_draws(b2h2, linear_prior, np.random.default_rng(1), size=50_000)
    assert draws.shape == (50_000, 8, 3)
    inc = draws[:, 4] - draws[:, 2]
    assert np.allclose(np.cov(inc.T), linear_prior.node_variance[4], atol=0.1)


def test_instance_reward_and_best_action(b2h2, b2h2_prior):
    """step pulls the best leaf's mean plus noise, and rejects a node that is not a leaf."""
    theta = np.zeros(8)
    theta[b2h2.action_nodes] = [0.1, 0.9, 0.3, 0.2]
    inst = Instance(hierarchy=b2h2, prior=b2h2_prior, theta=theta)
    assert step(inst, 5, np.random.default_rng(0)) == 0.9 + np.random.default_rng(0).standard_normal()
    with pytest.raises(HierarchyError):
        step(inst, 2, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    pulls = np.array([step(inst, 5, rng) for _ in range(4000)])
    assert abs(pulls.mean() - 0.9) < 0.07
    assert abs(pulls.std() - 1.0) < 0.05


def test_linear_instance_contextual_best(b2h2, linear_prior):
    """step on a linear instance pulls x . theta_a plus noise, and rejects a context that is not finite."""
    inst = sample_instance(b2h2, linear_prior, np.random.default_rng(3))
    ctx = np.array([1.0, 0.0, 0.0])
    values = inst.leaf_parameters() @ ctx
    a = int(b2h2.action_nodes[np.argmax(values)])
    noise = linear_prior.noise_std * np.random.default_rng(0).standard_normal()
    assert step(inst, a, np.random.default_rng(0), ctx) == values.max() + noise
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="context must be finite"):
            step(inst, a, np.random.default_rng(0), np.array(bad))


@pytest.mark.parametrize("context", [np.zeros((2, 1)), np.zeros((2, 2)), None, np.zeros(3)],
                         ids=["column", "matrix", "missing", "length-3"])
def test_reward_mean_and_step_check_the_linear_context(context):
    """step rejects a context that does not fit a d=2 linear instance."""
    tree = balanced_tree(2, 1)
    prior = PriorSpec(np.zeros(2), {n: np.eye(2) for n in (1, 2, 3)}, noise_std=1.0)
    inst = sample_instance(tree, prior, np.random.default_rng(0))
    shape = None if context is None else context.shape
    with pytest.raises(ValueError, match=re.escape(f"context must have shape (2,), got {shape}")):
        step(inst, 2, np.random.default_rng(1), context)


def test_reward_mean_and_step_reject_a_context_on_a_k_armed_instance(b2h2, b2h2_prior):
    inst = sample_instance(b2h2, b2h2_prior, np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("context must be None for the k-armed model, got shape (2,)")):
        step(inst, 4, np.random.default_rng(1), np.zeros(2))


def test_sample_contexts_unit_norm():
    ctx = sample_contexts(np.random.default_rng(0), 500, 6)
    assert ctx.shape == (500, 6)
    assert np.allclose(np.linalg.norm(ctx, axis=1), 1.0, atol=1e-12)


def _toy_rows():
    # two-leaf tree, two classes, three train + one test row each
    rows = [
        ("r0", "a", "train", [0.0, 0.0]),
        ("r1", "a", "train", [1.0, 0.0]),
        ("r2", "a", "train", [0.0, 2.0]),
        ("r3", "a", "test", [0.5, 0.5]),
        ("r4", "b", "train", [4.0, 4.0]),
        ("r5", "b", "train", [5.0, 6.0]),
        ("r6", "b", "train", [6.0, 5.0]),
        ("r7", "b", "test", [5.0, 5.0]),
    ]
    return rows


def _toy_dataset():
    rows = _toy_rows()
    tree = build_hierarchy({2: 1, 3: 1})
    label_map = {"a": 2, "b": 3}
    return (
        FeatureDataset(
            ids=tuple(r[0] for r in rows),
            features=np.array([r[3] for r in rows]),
            leaf_ids=np.array([label_map[r[1]] for r in rows]),
            is_train=np.array([r[2] == "train" for r in rows]),
        ),
        tree,
        label_map,
    )


def test_fit_priors_exact_covariances():
    dataset, tree, _ = _toy_dataset()
    prior, theta_star, report = fit_priors_from_data(dataset, tree, noise_std=0.5)
    train = dataset.features[dataset.is_train]
    assert np.allclose(prior.node_variance[1], np.cov(train, rowvar=False, ddof=1), atol=1e-12)
    rows_a = dataset.rows_for(2, train=True)
    assert np.allclose(prior.node_variance[2], np.cov(rows_a, rowvar=False, ddof=1), atol=1e-12)
    assert np.allclose(np.asarray(prior.hyper_mean), train.mean(axis=0), atol=1e-12)
    assert prior.noise_std == 0.5
    assert np.allclose(theta_star[2], [0.5, 0.5])
    assert np.allclose(theta_star[3], [5.0, 5.0])
    assert report.floored_nodes == ()


def test_fit_priors_diagonal_option():
    dataset, tree, _ = _toy_dataset()
    prior, _, _ = fit_priors_from_data(dataset, tree, diagonal=True)
    full, _, _ = fit_priors_from_data(dataset, tree)
    for node in range(1, tree.num_nodes + 1):
        cov = prior.node_variance[node]
        assert np.array_equal(cov, np.diag(np.diag(cov)))  # every node, not just the root
        assert np.allclose(np.diag(cov), np.diag(full.node_variance[node]), rtol=1e-12)
    assert not np.allclose(full.node_variance[1], np.diag(np.diag(full.node_variance[1])))


def test_fit_priors_floors_degenerate_classes(caplog):
    dataset, tree, _ = _toy_dataset()
    # collapse class b onto a single repeated point: zero sample covariance
    feats = dataset.features.copy()
    feats[dataset.leaf_ids == 3] = [1.0, 1.0]
    clone = FeatureDataset(dataset.ids, feats, dataset.leaf_ids, dataset.is_train)
    with caplog.at_level(logging.WARNING):
        prior, _, report = fit_priors_from_data(clone, tree)
    assert 3 in report.floored_nodes
    assert np.linalg.eigvalsh(prior.node_variance[3]).min() >= COVARIANCE_FLOOR * (1 - 1e-12)
    assert "floored" in caplog.text


def test_fit_priors_requires_rows():
    dataset, tree, _ = _toy_dataset()
    only_a = dataset.leaf_ids == 2
    small = FeatureDataset(
        tuple(np.array(dataset.ids)[only_a]),
        dataset.features[only_a],
        dataset.leaf_ids[only_a],
        dataset.is_train[only_a],
    )
    with pytest.raises(DatasetError, match="training rows"):
        fit_priors_from_data(small, tree)
    # drop the test rows instead: parameters become undefined
    no_test = dataset.is_train.copy()
    trainonly = FeatureDataset(dataset.ids, dataset.features, dataset.leaf_ids, np.ones_like(no_test))
    with pytest.raises(DatasetError, match="no test rows"):
        fit_priors_from_data(trainonly, tree)


def test_dataset_instance_internal_averages():
    dataset, tree, _ = _toy_dataset()
    prior, theta_star, _ = fit_priors_from_data(dataset, tree)
    inst = dataset_instance(tree, prior, theta_star)
    assert np.allclose(inst.theta[2], theta_star[2])
    assert np.allclose(inst.theta[1], 0.5 * (theta_star[2] + theta_star[3]))


def test_csv_roundtrip(tmp_path):
    dataset, tree, label_map = _toy_dataset()
    path = tmp_path / "toy.csv"
    write_dataset_csv(path, dataset, label_map)
    loaded = load_feature_dataset(path, tree, label_map)
    assert loaded.ids == dataset.ids
    assert np.array_equal(loaded.leaf_ids, dataset.leaf_ids)
    assert np.array_equal(loaded.is_train, dataset.is_train)
    assert np.allclose(loaded.features, dataset.features, atol=0)  # %.17g is lossless


@pytest.mark.parametrize(
    "line,msg",
    [
        ("r9,zzz,train,1,2", "unknown label"),
        ("r9,a,dev,1,2", "split must be train or test"),
        ("r9,a,train,1", "expected 5 fields"),
        ("r9,a,train,1,oops", "could not convert"),
        ("r9,a,train,1,inf", "non-finite"),
    ],
)
def test_loader_rejects_bad_rows(tmp_path, line, msg):
    dataset, tree, label_map = _toy_dataset()
    path = tmp_path / "bad.csv"
    write_dataset_csv(path, dataset, label_map)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(DatasetError, match=msg) as err:
        load_feature_dataset(path, tree, label_map)
    assert "line 10" in str(err.value)


def test_loader_rejects_bad_header(tmp_path):
    _, tree, label_map = _toy_dataset()
    path = tmp_path / "bad.csv"
    path.write_text("id,label\n")
    with pytest.raises(DatasetError, match="header"):
        load_feature_dataset(path, tree, label_map)
    path.write_text("id,label,split,f1\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_feature_dataset(path, tree, label_map)


def test_make_cluster_dataset_shape():
    rng = np.random.default_rng(7)
    dataset, tree, label_map = make_cluster_dataset(rng, num_groups=3, classes_per_group=2, dim=4)
    assert tree.num_actions == 6
    assert tree.tree_height == 2
    assert sorted(label_map) == [f"c{i:02d}" for i in range(6)]
    assert dataset.features.shape == (6 * 60, 4)
    for leaf in tree.action_nodes:
        assert dataset.rows_for(int(leaf), train=True).shape[0] == 40
        assert dataset.rows_for(int(leaf), train=False).shape[0] == 20
    with pytest.raises(DatasetError):
        make_cluster_dataset(rng, num_groups=1)


def test_cluster_dataset_fit_runs_end_to_end():
    rng = np.random.default_rng(0)
    dataset, tree, _ = make_cluster_dataset(rng, num_groups=2, classes_per_group=2, dim=3)
    prior, theta_star, report = fit_priors_from_data(dataset, tree)
    assert not prior.is_scalar and prior.dim == 3
    assert set(theta_star) == set(int(a) for a in tree.action_nodes)
    assert report.floored_nodes == ()
    inst = dataset_instance(tree, prior, theta_star)
    ctx = dataset.features[~dataset.is_train][0]
    assert np.isfinite(step(inst, int(tree.action_nodes[0]), np.random.default_rng(0), ctx))


def test_degenerate_prior_instance_has_identical_arms(b2h2):
    prior = constant_prior(b2h2, 1e-9, noise_std=1.0, hyper_mean=2.0)
    inst = sample_instance(b2h2, prior, np.random.default_rng(0))
    vals = inst.leaf_parameters()
    assert np.allclose(vals, 2.0, atol=1e-3)
    assert vals.max() - vals.min() < 1e-3
