"""A plain reference model of the exact tree posterior, which every posterior engine must match in bytes.

The dense oracle judges correctness to a tolerance; this model guards the speed-ups. It runs the recursion in
hierts.posterior's docstring node by node and observation by observation, with the engines' operation order, so
an engine that computes the same posterior any faster way gives the same bits:

- ScalarReference keeps every per-node value as a Python float. A parent pools at most SHORT_SUM_MAX child
  messages left to right from 0.0, and more with numpy's sum over a contiguous copy: the orders numpy's own sum
  takes.
- LinearReference folds each node through hierts.linear's own _conditional and _add_observation, since the
  linear bits depend on those calls, and pools a parent's child messages with np.add.reduce over their stack,
  the engine's call (numpy sums a (k, 1, 1) stack pairwise, so a left fold would differ at d = 1).
- TSReference keeps TSAgent's independent arms one by one, each from its tree marginal prior.
- A draw takes its normals as an argument: root first, then in Hierarchy.sample_nodes order, d values per node
  for the linear model; a TS draw one normal (d for a matrix prior) per arm, in action order.

engine_bytes is the one comparator: every cached float and array of an engine or a reference, by name. A new
engine joins tests/test_reference.py's suite by being fed each stream's updates there and compared with
engine_bytes, and its draws with the reference's draw from the same normals.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from hierts import balanced_tree, build_hierarchy, constant_prior, flatten_hierarchy
from hierts.checks import random_tree
from hierts.hierarchy import ROOT, marginal_prior_variances
from hierts.linear import _add_observation, _conditional, _sym
from hierts.posterior import SHORT_SUM_MAX

# each kind of engine's cached values, under the names its engines and its reference share
SCALAR_STATE = ("counts", "reward_sums", "lam0", "ev_prec", "ev_wmean", "msg_prec", "msg_wmean", "lamhat",
                "sqrt_lamhat", "root_mean")
LINEAR_STATE = ("lam0", "ev_prec", "ev_wmean", "msg_prec", "msg_wmean", "_s_cov", "post_cov", "post_factor", "slope",
                "intercept", "root_mean")
SCALAR_ARMS = ("prec", "wmean", "mean", "sd")
MATRIX_ARMS = ("prec", "cov", "wmean", "factor", "mean")
# the per-node floats behind a PosteriorState's level_copies, in order
LEVEL_COPIES = ("lam0", "ev_wmean", "lamhat", "sqrt_lamhat")


def engine_bytes(obj) -> dict[str, bytes]:
    """Every cached float and array of a posterior state, TS agent or reference, by name, as bytes; a HierTS or
    FlatTS agent by its state. A scalar state must hold each per-node value as a Python float in a list, and each
    numpy copy it writes through (level_copies, the messages of a wide parent's children) must hold those floats'
    bits; AssertionError otherwise."""
    obj = getattr(obj, "state", obj)
    names = next(names for names in (SCALAR_STATE, LINEAR_STATE, SCALAR_ARMS, MATRIX_ARMS)
                 if all(hasattr(obj, name) for name in names))
    out = {name: np.array(getattr(obj, name)).tobytes() for name in names}
    if names is SCALAR_STATE:
        for name in names[:-1]:
            floats = getattr(obj, name)
            assert type(floats) is list and all(type(x) is float for x in floats), name
        assert type(obj.root_mean) is float
        for name, copy in zip(LEVEL_COPIES, getattr(obj, "level_copies", None) or ()):
            assert copy.tobytes() == out[name], name
        if hasattr(obj, "_msg_arrays"):
            kids = np.flatnonzero(obj._wide_child)
            for name, array in zip(("msg_prec", "msg_wmean"), obj._msg_arrays):
                assert array[kids].tobytes() == np.array(getattr(obj, name))[kids].tobytes(), name
    return out


def _pool(values: list[float]) -> float:
    if len(values) > SHORT_SUM_MAX:
        return float(np.add.reduce(np.array(values)))
    return functools.reduce(operator.add, values, 0.0)


class ScalarReference:
    """The scalar posterior on Python floats, each node folded on its own (slot 0 as the engine leaves it)."""

    def __init__(self, hierarchy, prior):
        self.hierarchy = hierarchy
        self.noise_prec = float(1.0 / prior.noise_std**2)
        self.hyper_mean = float(prior.hyper_mean)
        n = hierarchy.num_nodes + 1
        self.lam0 = (1.0 / prior.variances(hierarchy)).tolist()
        self.counts, self.reward_sums, self.ev_prec, self.ev_wmean, self.msg_prec, self.msg_wmean = (
            [0.0] * n for _ in range(6))
        self.lamhat, self.sqrt_lamhat = [math.nan] * n, [math.nan] * n
        for node in hierarchy.sample_nodes[::-1] + (ROOT,):
            self._fold(node)

    def update_path(self, leaf: int, reward: float, context=None) -> None:
        """One reward at a leaf, then each node of its root path folded again, the leaf first."""
        self.counts[leaf] += 1.0
        self.reward_sums[leaf] += float(reward)
        self.ev_prec[leaf] = self.counts[leaf] * self.noise_prec
        self.ev_wmean[leaf] = self.reward_sums[leaf] * self.noise_prec
        for node in self.hierarchy.path_to_root(leaf)[::-1].tolist():
            self._fold(node)

    def _fold(self, node: int) -> None:
        children = self.hierarchy.children(node).tolist()
        if children:
            self.ev_prec[node] = _pool([self.msg_prec[c] for c in children])
            self.ev_wmean[node] = _pool([self.msg_wmean[c] for c in children])
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        lamhat = self.lamhat[node] = lam0 + prec
        self.sqrt_lamhat[node] = math.sqrt(lamhat)
        if node == ROOT:
            self.root_mean = (lam0 * self.hyper_mean + wmean) / lamhat
        else:
            self.msg_prec[node] = prec * lam0 / lamhat
            self.msg_wmean[node] = lam0 / lamhat * wmean

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Node parameters from num_nodes normals, indexed by node id (slot 0 nan)."""
        hier, z = self.hierarchy, z.tolist()
        theta = [math.nan] * (hier.num_nodes + 1)
        theta[ROOT] = self.root_mean + z[0] / self.sqrt_lamhat[ROOT]
        for v, p, zv in zip(hier.sample_nodes, hier.sample_parents, z[1:]):
            theta[v] = (theta[p] * self.lam0[v] + self.ev_wmean[v]) / self.lamhat[v] + zv / self.sqrt_lamhat[v]
        return np.array(theta)


class LinearReference:
    """The linear posterior as one (d, d) or (d,) array per node and cache, each node folded on its own (slot 0 as
    the engine leaves it)."""

    def __init__(self, hierarchy, prior):
        self.hierarchy = hierarchy
        self.dim = d = prior.dim
        self.noise_prec = 1.0 / prior.noise_std**2
        self.hyper_mean = np.asarray(prior.hyper_mean, float)
        n = hierarchy.num_nodes + 1
        self.lam0 = [_sym(np.linalg.inv(v)) for v in prior.variances(hierarchy)]
        self.ev_prec, self.msg_prec = ([np.zeros((d, d)) for _ in range(n)] for _ in range(2))
        self.ev_wmean, self.msg_wmean, self.intercept = ([np.zeros(d) for _ in range(n)] for _ in range(3))
        self._s_cov, self.post_cov = [np.array([np.eye(d), np.eye(d)])] * n, [np.eye(d)] * n
        self.post_factor, self.slope = [np.eye(d)] * n, [np.eye(d)] * n
        for node in hierarchy.sample_nodes[::-1] + (ROOT,):
            self._fold(node)

    def update_path(self, leaf: int, reward: float, context: np.ndarray) -> None:
        """One (context, reward) pair at a leaf, then each node of its root path folded again, the leaf first."""
        _add_observation(self.ev_prec[leaf], self.ev_wmean[leaf], context, reward, self.noise_prec)
        for node in self.hierarchy.path_to_root(leaf)[::-1].tolist():
            self._fold(node)

    def _fold(self, node: int) -> None:
        children = self.hierarchy.children(node).tolist()
        if children:
            self.ev_prec[node] = np.add.reduce(np.array([self.msg_prec[c] for c in children]), axis=0)
            self.ev_wmean[node] = np.add.reduce(np.array([self.msg_wmean[c] for c in children]), axis=0)
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        pair = self._s_cov[node] = np.array([prec + lam0, np.empty_like(lam0)])
        li = _conditional(pair, "posterior at node {}", node)
        cov = self.post_cov[node] = pair[1]
        self.post_factor[node] = li.T.copy()  # C order, as the engine stores it and its matmuls read it
        self.slope[node] = cov @ lam0
        intercept = self.intercept[node] = cov @ wmean
        if node == ROOT:
            self.root_mean = self.slope[node] @ self.hyper_mean + intercept
        else:
            small = prec if np.add.reduce(prec.diagonal()) <= np.trace(lam0) else lam0
            h = li @ small
            self.msg_prec[node] = small - h.T @ h
            self.msg_wmean[node] = lam0 @ intercept

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Node parameter vectors from num_nodes * d normals, shape (num_nodes + 1, d) (row 0 nan)."""
        hier, d = self.hierarchy, self.dim
        z = z.reshape(-1, d, 1)
        theta = [np.full((d, 1), np.nan)] * (hier.num_nodes + 1)
        theta[ROOT] = self.root_mean[:, None] + self.post_factor[ROOT] @ z[0]
        for v, p, zv in zip(hier.sample_nodes, hier.sample_parents, z[1:]):
            mean = self.slope[v] @ theta[p]
            mean += self.post_factor[v] @ zv
            mean += self.intercept[v][:, None]
            theta[v] = mean
        return np.array(theta)[..., 0]


class TSReference:
    """TSAgent's independent arms, one at a time, each from its tree marginal prior."""

    def __init__(self, hierarchy, prior):
        self.hierarchy = hierarchy
        self.noise_prec = 1.0 / prior.noise_std**2
        marginal = marginal_prior_variances(hierarchy, prior)[hierarchy.action_nodes]
        self._scalar = prior.is_scalar
        if self._scalar:
            self.prec = [1.0 / float(m) for m in marginal]
            self.wmean = [prec * float(prior.hyper_mean) for prec in self.prec]
            self.mean = [wmean / prec for wmean, prec in zip(self.wmean, self.prec)]
            self.sd = [math.sqrt(prec) for prec in self.prec]
            return
        self.dim = prior.dim
        self._pairs = [np.array([_sym(np.linalg.inv(m)), np.empty_like(m)]) for m in marginal]
        self.prec, self.cov = [pair[0] for pair in self._pairs], [pair[1] for pair in self._pairs]
        self.wmean = [prec @ np.asarray(prior.hyper_mean, float) for prec in self.prec]
        self.factor, self.mean = [None] * len(self.prec), [None] * len(self.prec)
        for j in range(len(self.prec)):
            self._refresh(j)

    def update(self, leaf: int, reward: float, context=None) -> None:
        """One reward (and context, for a matrix prior) added to the arm of a leaf."""
        j = self.hierarchy.action_position(leaf)
        if self._scalar:
            prec = self.prec[j] = self.prec[j] + self.noise_prec
            wmean = self.wmean[j] = self.wmean[j] + float(reward) * self.noise_prec
            self.mean[j], self.sd[j] = wmean / prec, math.sqrt(prec)
            return
        _add_observation(self.prec[j], self.wmean[j], context, reward, self.noise_prec)
        self._refresh(j)

    def _refresh(self, j: int) -> None:
        li = _conditional(self._pairs[j], "arm {} covariance", j)
        self.factor[j] = li.T.copy()  # C order, as TSAgent stores it
        self.mean[j] = self.cov[j] @ self.wmean[j]

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Every arm's draw from one normal (d for a matrix prior) per arm, in action order."""
        if self._scalar:
            return np.array([zj / sd + mean for zj, sd, mean in zip(z.tolist(), self.sd, self.mean)])
        z = z.reshape(-1, self.dim, 1)
        return np.array([mean + (factor @ zj)[:, 0] for zj, factor, mean in zip(z, self.factor, self.mean)])


def suite_trees() -> dict:
    """The fixed trees of tests/test_reference.py, by name. wide-mixed-0 to 2 are checks.random_tree trees grown
    under three leaves: SHORT_SUM_MAX + 2 children with consecutive ids under one (pooled from a slice view) and
    as many under each of two more with interleaved ids (pooled from a gathered copy). Their leaves sit at mixed
    depths, so some draw levels have id arrays."""
    rng = np.random.default_rng(41)
    width, trees = SHORT_SUM_MAX + 2, {}
    while len(trees) < 3:
        base = random_tree(rng, max_levels=4, max_nodes=24)
        if base.action_nodes.size < 3:
            continue
        parents = {v: int(base.parent[v]) for v in range(2, base.num_nodes + 1)}
        a, b, c = rng.choice(base.action_nodes, 3, replace=False).tolist()
        n = base.num_nodes
        parents.update({n + 1 + i: a for i in range(width)})
        parents.update({n + width + 1 + i: (b, c)[i % 2] for i in range(2 * width)})
        trees[f"wide-mixed-{len(trees)}"] = build_hierarchy(parents)
    # one-node levels put ids 3 and 5 first, so the draw positions are no run of ids
    trees["gapped"] = build_hierarchy({2: 1, 3: 1, 4: 3, 5: 3, **{v: 5 for v in range(6, 46)}})
    # parents of SHORT_SUM_MAX and SHORT_SUM_MAX + 1 children: the widest left fold and the narrowest numpy sum
    trees["boundary"] = build_hierarchy({**{v: 1 for v in range(2, SHORT_SUM_MAX + 2)},
                                         **{v: 2 for v in range(SHORT_SUM_MAX + 2, 2 * SHORT_SUM_MAX + 3)}})
    b2h8 = balanced_tree(2, 8)
    trees["flat-b2h8"] = flatten_hierarchy(b2h8, constant_prior(b2h8))[0]  # a 256-child root
    return trees
