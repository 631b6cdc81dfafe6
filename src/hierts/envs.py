"""Bandit environments: synthetic tree instances and feature-dataset bandits.

A synthetic instance draws one parameter per tree node from the hierarchical
prior; rewards are the acting leaf's parameter (scalar model) or its inner
product with a context vector (linear model) plus Gaussian noise.

A feature-dataset bandit turns a labelled feature table into a contextual
bandit: classes are leaves of a user-supplied tree, contexts are feature
rows, the payoff of pulling class a on row x is x . theta_a where theta_a is
the class mean on the held-out split, and the hierarchical prior is fitted
to the training split.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hierarchy import ROOT, Hierarchy, PriorSpec, build_hierarchy
from .posterior import _context

__all__ = [
    "DatasetError",
    "Instance",
    "sample_parameter_draws",
    "sample_instance",
    "step",
    "sample_contexts",
    "FeatureDataset",
    "load_feature_dataset",
    "fit_priors_from_data",
    "dataset_instance",
    "make_cluster_dataset",
    "write_dataset_csv",
]

COVARIANCE_FLOOR = 1e-6
# make_cluster_dataset's spreads of group centers, class centers and points
GROUP_SCALE, CLASS_SCALE, POINT_SCALE = 0.4, 0.25, 0.4


class DatasetError(ValueError):
    """A feature dataset fails validation."""


@dataclass(frozen=True, eq=False)
class Instance:
    """One realized environment: a parameter for every tree node."""

    hierarchy: Hierarchy
    prior: PriorSpec
    theta: np.ndarray  # (num_nodes + 1,) or (num_nodes + 1, d); slot 0 unused

    def leaf_parameters(self) -> np.ndarray:
        return self.theta[self.hierarchy.action_nodes]


def sample_parameter_draws(
    hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw full parameter trees from the prior; shape (size, num_nodes + 1[, d]).

    Each node is its parent's parameter plus Gaussian noise with the node's
    variance, the root's parent being hyper_mean; a scalar prior runs as d = 1.
    """
    n = hierarchy.num_nodes
    variances = prior.variances(hierarchy)
    factor = np.sqrt(variances).reshape(n + 1, 1, 1) if prior.is_scalar else np.linalg.cholesky(variances)
    d = factor.shape[-1]
    theta = np.empty((size, n + 1, d))
    theta[:, 0] = np.nan
    theta[:, ROOT] = prior.hyper_mean + np.einsum("ij,mj->mi", factor[ROOT], rng.standard_normal((size, d)))
    for nodes, parents, start, stop in hierarchy.level_index:
        z = rng.standard_normal((size, stop - start, d))
        theta[:, nodes] = theta[:, parents] + np.einsum("kij,mkj->mki", factor[nodes], z)
    return theta[..., 0] if prior.is_scalar else theta


def sample_instance(hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator) -> Instance:
    return Instance(hierarchy=hierarchy, prior=prior, theta=sample_parameter_draws(hierarchy, prior, rng, 1)[0])


def step(
    instance: Instance, action: int, rng: np.random.Generator, context: np.ndarray | None = None
) -> float:
    """Pull an arm: mean reward plus N(0, noise_std^2) noise.

    HierarchyError unless action is a leaf; ValueError unless the context fits the model (shape (d,) for the
    linear model, None for the k-armed one) and gives a finite mean.
    """
    instance.hierarchy.action_position(action)  # HierarchyError unless a leaf
    theta = instance.theta[action]
    x = _context(context, theta.shape[0] if theta.ndim else None)
    if x is None:
        value = float(theta)
    else:
        value = float(theta @ x)
        if not math.isfinite(value):
            raise ValueError(f"context must be finite, got {context}")
    return value + instance.prior.noise_std * rng.standard_normal()


def sample_contexts(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows drawn uniformly from the unit sphere in R^dim."""
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # A resample for the (measure-zero) all-zeros row keeps this total.
    while (norms == 0).any():
        bad = norms[:, 0] == 0
        z[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


@dataclass(frozen=True, eq=False)
class FeatureDataset:
    """Labelled feature rows with a train/test split, resolved against a tree."""

    ids: tuple[str, ...]
    features: np.ndarray  # (rows, d)
    leaf_ids: np.ndarray  # (rows,)
    is_train: np.ndarray  # (rows,) bool

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def rows_for(self, leaf: int, train: bool) -> np.ndarray:
        mask = (self.leaf_ids == leaf) & (self.is_train == train)
        return self.features[mask]


def load_feature_dataset(
    path: str | Path, hierarchy: Hierarchy, label_map: dict[str, int]
) -> FeatureDataset:
    """Read a `id,label,split,f1,...,fd` CSV and resolve labels to leaves."""
    path = Path(path)
    for label, node in label_map.items():
        if not hierarchy.is_leaf(int(node)):
            raise DatasetError(f"label '{label}' maps to non-leaf node {node}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if header[:3] != ["id", "label", "split"] or len(header) < 4:
            raise DatasetError(
                f"{path}: header must be id,label,split,f1,...,fd; got {','.join(header[:6])}"
            )
        dim = len(header) - 3
        ids: list[str] = []
        leaf_ids: list[int] = []
        is_train: list[bool] = []
        values: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + dim:
                raise DatasetError(f"{path}: line {lineno}: expected {3 + dim} fields, got {len(row)}")
            rid, label, split = row[0], row[1], row[2]
            if label not in label_map:
                raise DatasetError(f"{path}: line {lineno}: unknown label '{label}'")
            if split not in ("train", "test"):
                raise DatasetError(f"{path}: line {lineno}: split must be train or test, got '{split}'")
            try:
                feats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, feats)):
                raise DatasetError(f"{path}: line {lineno}: non-finite feature value")
            ids.append(rid)
            leaf_ids.append(label_map[label])
            is_train.append(split == "train")
            values.append(feats)
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return FeatureDataset(
        ids=tuple(ids),
        features=np.asarray(values, float),
        leaf_ids=np.asarray(leaf_ids, np.int64),
        is_train=np.asarray(is_train, bool),
    )


def _floor_covariance(cov: np.ndarray, floor: float) -> tuple[np.ndarray, bool]:
    cov = 0.5 * (cov + cov.T)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval[0] > floor:
        return cov, False
    fixed = (eigvec * np.maximum(eigval, floor)) @ eigvec.T
    return 0.5 * (fixed + fixed.T), True


def fit_priors_from_data(
    dataset: FeatureDataset,
    hierarchy: Hierarchy,
    *,
    noise_std: float = 0.5,
    diagonal: bool = False,
) -> tuple[PriorSpec, dict[int, np.ndarray], tuple[int, ...]]:
    """Fit the hierarchical prior to the training split.

    The root gets the mean and covariance of all training rows; every other
    node gets the sample covariance of the training rows under its subtree.
    Ground-truth arm parameters are the per-class means of the test split.
    Covariances are floored so that no eigenvalue falls below
    COVARIANCE_FLOOR; with diagonal=True only per-feature variances are kept.
    Returns (prior, theta_star by leaf, the floored nodes). DatasetError names
    the node whose covariance, or the leaf whose mean, is not finite.
    """
    d = dataset.dim
    floored: list[int] = []
    train = dataset.features[dataset.is_train]

    def fitted_cov(rows: np.ndarray, node: int) -> np.ndarray:
        cov = np.cov(rows, rowvar=False, ddof=1).reshape(d, d)
        if diagonal:
            cov = np.diag(np.diag(cov))
        cov, was_floored = _floor_covariance(cov, COVARIANCE_FLOOR)
        if was_floored:
            floored.append(node)
        return cov

    node_variance: dict[int, np.ndarray] = {}
    theta_star: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is named below instead
        for node in range(1, hierarchy.num_nodes + 1):
            if node == ROOT:
                rows = train
            else:
                leaves = hierarchy.subtree_leaves(node)
                mask = np.isin(dataset.leaf_ids, leaves) & dataset.is_train
                rows = dataset.features[mask]
            if rows.shape[0] < 2:
                raise DatasetError(
                    f"node {node} has {rows.shape[0]} training rows; need at least 2 to fit a covariance"
                )
            cov = node_variance[node] = fitted_cov(rows, node)
            if not np.isfinite(cov).all():
                raise DatasetError(f"node {node}: the covariance of its training rows is not finite")

        for leaf in hierarchy.action_nodes:
            rows = dataset.rows_for(int(leaf), train=False)
            if rows.shape[0] == 0:
                raise DatasetError(f"leaf {leaf} has no test rows; cannot define its true parameter")
            mean = theta_star[int(leaf)] = rows.mean(axis=0)
            if not np.isfinite(mean).all():
                raise DatasetError(f"leaf {leaf}: the mean of its test rows is not finite")

    if floored:
        import logging  # only a floored fit warns; a run that floors nothing never loads logging

        logging.getLogger(__name__).warning(
            "floored %d covariance(s) at %g during prior fitting: nodes %s",
            len(floored),
            COVARIANCE_FLOOR,
            floored,
        )
    prior = PriorSpec(hyper_mean=train.mean(axis=0), node_variance=node_variance, noise_std=noise_std)
    return prior, theta_star, tuple(floored)


def dataset_instance(
    hierarchy: Hierarchy, prior: PriorSpec, theta_star: dict[int, np.ndarray]
) -> Instance:
    """Instance whose leaf parameters are the dataset's test-split class means.

    Internal slots carry subtree averages; only leaves drive rewards.
    """
    d = prior.dim
    theta = np.zeros((hierarchy.num_nodes + 1, d))
    for leaf, value in theta_star.items():
        theta[leaf] = value
    for node in range(1, hierarchy.num_nodes + 1):
        if not hierarchy.is_leaf(node):
            theta[node] = theta[hierarchy.subtree_leaves(node)].mean(axis=0)
    return Instance(hierarchy=hierarchy, prior=prior, theta=theta)


def make_cluster_dataset(
    rng: np.random.Generator,
    *,
    num_groups: int = 5,
    classes_per_group: int = 5,
    dim: int = 10,
    train_per_class: int = 40,
    test_per_class: int = 20,
) -> tuple[FeatureDataset, Hierarchy, dict[str, int]]:
    """Synthetic Gaussian clusters with a two-level class taxonomy.

    Group centers, class centers around them, then points around classes.
    Class labels are c00..cNN and map onto the leaves of a height-2 tree
    whose first level splits by group.

    The scales (GROUP_SCALE, CLASS_SCALE, POINT_SCALE) keep the
    subtree-covariance prior fit roughly honest:
    point scatter is at least the class spread (so leaf covariances do not
    understate how far class means sit from their group), and the group
    spread stays within the pooled within-group scatter. Shrinking either
    ratio makes the fitted tree overconfident and Thompson sampling can
    lock onto the wrong branch.
    """
    if num_groups < 2 or classes_per_group < 2:
        raise DatasetError("need at least 2 groups and 2 classes per group")
    hierarchy = _grouped_tree(num_groups, classes_per_group)
    labels = [f"c{idx:02d}" for idx in range(num_groups * classes_per_group)]
    label_map = {lab: int(hierarchy.action_nodes[i]) for i, lab in enumerate(labels)}
    ids: list[str] = []
    leaf_ids: list[int] = []
    is_train: list[bool] = []
    rows: list[np.ndarray] = []
    group_centers = rng.standard_normal((num_groups, dim)) * GROUP_SCALE
    for g in range(num_groups):
        for c in range(classes_per_group):
            idx = g * classes_per_group + c
            center = group_centers[g] + rng.standard_normal(dim) * CLASS_SCALE
            n = train_per_class + test_per_class
            points = center + rng.standard_normal((n, dim)) * POINT_SCALE
            for r in range(n):
                ids.append(f"{labels[idx]}-{r:03d}")
                leaf_ids.append(label_map[labels[idx]])
                is_train.append(r < train_per_class)
                rows.append(points[r])
    dataset = FeatureDataset(
        ids=tuple(ids),
        features=np.asarray(rows, float),
        leaf_ids=np.asarray(leaf_ids, np.int64),
        is_train=np.asarray(is_train, bool),
    )
    return dataset, hierarchy, label_map


def _grouped_tree(num_groups: int, classes_per_group: int) -> Hierarchy:
    first_leaf = 2 + num_groups  # groups are nodes 2.., each followed by its classes' leaves in turn
    parents = dict.fromkeys(range(2, first_leaf), 1)
    parents.update((v, 2 + (v - first_leaf) // classes_per_group)
                   for v in range(first_leaf, first_leaf + num_groups * classes_per_group))
    return build_hierarchy(parents)


def write_dataset_csv(path: str | Path, dataset: FeatureDataset, label_map: dict[str, int]) -> None:
    by_leaf = {int(v): k for k, v in label_map.items()}
    d = dataset.dim
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "split"] + [f"f{i + 1}" for i in range(d)])
        for i in range(dataset.features.shape[0]):
            writer.writerow(
                [
                    dataset.ids[i],
                    by_leaf[int(dataset.leaf_ids[i])],
                    "train" if dataset.is_train[i] else "test",
                ]
                + [f"{v:.17g}" for v in dataset.features[i]]
            )
