"""Dense joint-Gaussian reference posterior over all node parameters.

The tree model is equivalent to one big Gaussian: stack every node's
parameter into a single vector whose prior covariance between nodes i and j
sums the conditional variances along the root path of their lowest common
ancestor. Rewards are linear-Gaussian observations of leaf blocks, so exact
posteriors follow from rank-one conditioning. This is the slow, obviously
correct reference the recursive implementation is checked against; its
per-draw factorization work grows cubically with the number of actions,
which is the point of comparison for the recursive sampler.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import Hierarchy, HierarchyError, PriorSpec, marginal_prior_variances

__all__ = [
    "JointGaussian",
    "joint_prior",
    "condition",
    "action_marginals",
    "information_form_marginals",
    "sample_action_values",
    "factorization_flops",
]

_SYM_TOL = 1e-8
_EIG_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class JointGaussian:
    """Multivariate normal over stacked node parameters.

    Node i occupies rows block(i) = [(i-1)*node_dim, i*node_dim). Scalar
    models use node_dim == 1.
    """

    hierarchy: Hierarchy
    node_dim: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        n = self.hierarchy.num_nodes * self.node_dim
        if self.mean.shape != (n,) or self.cov.shape != (n, n):
            raise ValueError(f"expected mean ({n},) and cov ({n}, {n})")
        if not np.allclose(self.cov, self.cov.T, atol=_SYM_TOL):
            raise ValueError("covariance is not symmetric")
        if np.linalg.eigvalsh(self.cov)[0] < _EIG_TOL:
            raise ValueError("covariance is not positive semidefinite")

    def block(self, node: int) -> slice:
        self.hierarchy._check_node(node)
        return slice((node - 1) * self.node_dim, node * self.node_dim)


def joint_prior(hierarchy: Hierarchy, prior: PriorSpec) -> JointGaussian:
    """Exact prior over all node parameters implied by the tree."""
    d = prior.dim
    n = hierarchy.num_nodes
    # Cov(theta_i, theta_j) accumulates the independent increments shared by
    # both paths, i.e. those on the path to lca(i, j): the marginal of lca(i, j).
    path_cov = marginal_prior_variances(hierarchy, prior).reshape(n + 1, d, d)
    cov = np.empty((n * d, n * d))
    for i in range(1, n + 1):
        bi = slice((i - 1) * d, i * d)
        for j in range(i, n + 1):
            bj = slice((j - 1) * d, j * d)
            shared = path_cov[hierarchy.lca(i, j)]
            cov[bi, bj] = shared
            cov[bj, bi] = shared.T
    mean = np.tile(np.atleast_1d(prior.hyper_mean), n)
    return JointGaussian(hierarchy=hierarchy, node_dim=d, mean=mean, cov=cov)


def _normalize_observation(joint: JointGaussian, obs) -> tuple[int, np.ndarray, float]:
    if len(obs) == 2:
        leaf, reward = obs
        x = np.ones(1)
    elif len(obs) == 3:
        leaf, x, reward = obs
        x = np.atleast_1d(np.asarray(x, float))
    else:
        raise ValueError(f"observation must be (leaf, reward) or (leaf, context, reward), got {obs!r}")
    if not joint.hierarchy.is_leaf(int(leaf)):
        raise HierarchyError(f"observations must target leaves, got node {leaf}")
    if x.shape != (joint.node_dim,):
        raise ValueError(f"context must have shape ({joint.node_dim},), got {x.shape}")
    return int(leaf), x, float(reward)


def condition(joint: JointGaussian, observations, sigma_sq: float) -> JointGaussian:
    """Posterior joint after conditioning on noisy leaf rewards.

    observations is an iterable of (leaf, reward) for scalar models or
    (leaf, context, reward) for linear ones; sigma_sq is the reward noise
    variance. Applies one rank-one update per observation.
    """
    if sigma_sq <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma_sq}")
    mean = joint.mean.copy()
    cov = joint.cov.copy()
    for obs in observations:
        leaf, x, reward = _normalize_observation(joint, obs)
        rows = joint.block(leaf)
        k = cov[:, rows] @ x
        s = x @ cov[rows, rows] @ x + sigma_sq
        mean = mean + k * ((reward - x @ mean[rows]) / s)
        cov = cov - np.outer(k, k) / s
        cov = 0.5 * (cov + cov.T)
    return JointGaussian(hierarchy=joint.hierarchy, node_dim=joint.node_dim, mean=mean, cov=cov)


def action_marginals(joint: JointGaussian) -> dict[int, tuple]:
    """Per-leaf marginal moments: (mean, variance) floats for scalar models,
    (mean vector, covariance matrix) for linear ones."""
    out: dict[int, tuple] = {}
    for leaf in joint.hierarchy.action_nodes:
        rows = joint.block(int(leaf))
        if joint.node_dim == 1:
            out[int(leaf)] = (float(joint.mean[rows][0]), float(joint.cov[rows, rows][0, 0]))
        else:
            out[int(leaf)] = (joint.mean[rows].copy(), joint.cov[rows, rows].copy())
    return out


def information_form_marginals(hierarchy: Hierarchy, prior: PriorSpec, gram, xy) -> dict[int, tuple]:
    """Per-leaf marginals, as action_marginals gives them, from the sparse joint precision solved once.

    A second judge that forms no message: each edge precision Lam0 = Sigma0^-1 adds to its node's and its
    parent's diagonal blocks and subtracts from the two blocks between them. gram and xy hold each node's
    sum(x x^T) / noise_var and sum(x y) / noise_var by node id, zero off the leaves.
    """
    n, d = hierarchy.num_nodes, prior.dim
    lam = np.linalg.inv(prior.variances(hierarchy)[1:].reshape(n, d, d))
    node, parent = np.arange(n), hierarchy.parent[1:] - 1  # positions of the nodes and their parents
    prec = np.zeros((n, d, n, d))
    prec[node, :, node] = lam + np.reshape(gram, (n + 1, d, d))[1:]
    np.add.at(prec, (parent[1:], slice(None), parent[1:]), lam[1:])
    prec[node[1:], :, parent[1:]] = prec[parent[1:], :, node[1:]] = -lam[1:]
    lin = np.reshape(xy, (n + 1, d))[1:].copy()
    lin[0] += lam[0] @ np.atleast_1d(prior.hyper_mean)
    sol = np.linalg.solve(prec.reshape(n * d, n * d), np.column_stack([lin.ravel(), np.eye(n * d)]))
    pos = hierarchy.action_nodes - 1
    means, covs = sol[:, 0].reshape(n, d)[pos], sol[:, 1:].reshape(n, d, n, d)[pos, :, pos]
    moments = [(float(m[0]), float(c[0, 0])) if d == 1 else (m, c) for m, c in zip(means, covs)]
    return dict(zip(hierarchy.action_nodes.tolist(), moments))


def sample_action_values(
    joint: JointGaussian, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw leaf parameters jointly via a dense Cholesky factorization.

    Returns (size, K) for scalar models, (size, K, d) for linear ones, with
    leaves ordered as hierarchy.action_nodes. Cost is cubic in K * d.
    """
    hier = joint.hierarchy
    d = joint.node_dim
    idx = np.concatenate([np.arange(joint.block(int(a)).start, joint.block(int(a)).stop) for a in hier.action_nodes])
    mean = joint.mean[idx]
    cov = joint.cov[np.ix_(idx, idx)]
    # Tiny symmetric jitter guards exact semidefiniteness after long
    # conditioning chains; it is far below every tolerance used in tests.
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(idx.size))
    z = rng.standard_normal((size, idx.size))
    draws = mean + z @ chol.T
    if d == 1:
        return draws
    return draws.reshape(size, hier.num_actions, d)


def factorization_flops(m: int) -> int:
    """Flop-count model for one dense draw over an m-dimensional block:
    m^3/3 for the Cholesky factorization plus 2 m^2 for the matrix-vector pass."""
    return m**3 // 3 + 2 * m**2
