"""Thompson sampling agents: hierarchical, flattened and independent-arm.

All three agents draw the same leaf marginals before any data arrives; they
differ only in how much of the tree's correlation structure they keep.
HierTS samples the full tree top-down (one Gaussian draw per node, so a
round costs a number of scalar draws linear in the node count), FlatTS runs
HierTS on a two-level collapse of the tree, and TS drops all correlations
and tracks each arm independently.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .hierarchy import (
    ROOT,
    Hierarchy,
    PriorSpec,
    _is_int,
    flatten_hierarchy,
    marginal_prior_variances,
)
from .linear import LinearPosteriorState, _add_observation, _argmax_score, _conditional, _context, _sym
from .posterior import PosteriorState

__all__ = ["AGENT_KINDS", "hierts_sample", "HierTSAgent", "FlatTSAgent", "TSAgent", "make_agent"]

AGENT_KINDS = ("HierTS", "FlatTS", "TS")


def hierts_sample(state, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw node parameters from the exact joint posterior, root downward.

    The root is drawn from its posterior given the hyper-prior, then each
    level conditions on the already-sampled parents. Works for both scalar
    and linear states; returns an array indexed by node id (slot 0 unused),
    of shape (num_nodes + 1,) or (num_nodes + 1, d), with a leading size
    axis when size is given.

    A call makes one standard-normal draw and consumes it root first, then
    level by level, each level shaped (size, level nodes[, d]). Normal draws
    concatenate exactly, so this is the stream of one draw per level.

    A scalar draw without a size takes the route that the state chose when
    it was built (PosteriorState.draw_route, by posterior._draw_route from
    the tree and FLOAT_DRAW_NODES_PER_LEVEL = R): it walks the root and then
    each level on the state's float lists while the level has at most R
    nodes, computing theta[v] = (theta[parent] * lam0 + wmean) / lamhat +
    z / sqrt_lamhat one node at a time (Hierarchy.sample_nodes), and runs
    numpy's level loop on the levels below, seeded with the float prefix's
    values by one slice assignment. A tree whose levels are all that narrow
    takes floats throughout, with no numpy call beyond the draw and the
    result. Otherwise the route is the cheapest of three, counted in float
    nodes with a numpy level and the switch between routes at R each: floats
    throughout (num_nodes), the level loop from the root (R per level) or
    the split (its float prefix's draw positions, R per level below and R
    for the switch). A tree whose first level is wide always runs the level
    loop from the root.

    The level loop reads the state's level_copies, numpy copies of those
    floats that are kept current for the nodes it draws; a sized draw
    builds its arrays from the floats on each call. It scales its part of
    the draw by 1 / sqrt(lamhat) in one pass, reading lamhat in the draw's
    root-first node order (Hierarchy.sample_order), then builds each level's
    mean in place. With a size it first moves each level's (size, width)
    block into a node-major (num_nodes, size) array, works on columns and
    returns the transpose. These are the per-level formula's operations on
    the same operands, so the bits are the same whichever level takes which
    route. A size that is not a positive integer, a bool among them, raises
    ValueError before any draw.

    The linear branch computes each level as slope @ parent + post_factor @ z
    + intercept on (size, nodes, d, 1) columns with stacked matmuls, which give
    each matrix its own bits whatever the batch shape.
    """
    scalar = isinstance(state, PosteriorState)
    if not (scalar or isinstance(state, LinearPosteriorState)):
        raise TypeError(f"unsupported posterior state {type(state).__name__}")
    if not (size is None or _is_int(size) and size > 0):
        raise ValueError(f"size must be a positive integer or None, got {size!r}")
    m = 1 if size is None else int(size)
    hier = state.hierarchy
    n = hier.num_nodes
    if scalar:
        if size is None:
            k, top, order, levels = state.draw_route  # the level loop's levels, after k draw positions on floats
            if k == n:
                return np.array(_float_walk(state, rng.standard_normal(n).tolist(), n))
            lam0, wmean, lamhat, sqrt_lamhat = state.level_copies
            z = rng.standard_normal(n)
            if k:
                floats = _float_walk(state, z[:k].tolist(), top)
                z = z[k:]
        else:  # per-level (m, width) blocks to node-major (n, m); node values as columns
            k, order, levels = 0, hier.sample_order, hier.level_index
            lists = (state.lam0, state.ev_wmean, state.lamhat, state.sqrt_lamhat)
            lam0, wmean, lamhat, sqrt_lamhat = (np.array(x)[:, None] for x in lists)
            blocks, z = rng.standard_normal(m * n), np.empty((n, m))
            z[0] = blocks[:m]
            for _, _, start, stop in levels:
                z[start:stop] = blocks[m * start : m * stop].reshape(m, -1).T
        z /= sqrt_lamhat[order]
        theta = np.empty((n + 1,) + z.shape[1:])
        if not k:
            theta[0] = np.nan
            theta[ROOT] = state.root_mean + z[0]
        else:  # the ids up to top that the prefix did not draw are nan here and the level loop's to write
            theta[: top + 1] = floats
        for nodes, parents, start, stop in levels:
            mean = theta[parents]
            mean *= lam0[nodes]
            mean += wmean[nodes]
            mean /= lamhat[nodes]
            mean += z[start - k : stop - k]
            theta[nodes] = mean
        return theta if size is None else np.ascontiguousarray(theta.T)
    d = state.dim
    slope, intercept, factor = state.slope, state.intercept, state.post_factor
    z = rng.standard_normal(m * n * d)
    theta = np.empty((m, n + 1, d, 1))
    theta[:, 0] = np.nan
    theta[:, ROOT] = state.root_mean[:, None] + factor[ROOT] @ z[: m * d].reshape(m, d, 1)
    for nodes, parents, start, stop in hier.level_index:
        mean = slope[nodes] @ theta[:, parents]
        mean += factor[nodes] @ z[m * d * start : m * d * stop].reshape(m, -1, d, 1)
        mean += intercept[nodes, :, None]
        theta[:, nodes] = mean
    return theta[0, ..., 0] if size is None else theta[..., 0]


def _float_walk(state: PosteriorState, z: list, top: int) -> list:
    """The scalar draw of the first len(z) draw positions (Hierarchy.sample_order) on the state's float lists,
    node by node, in a list indexed by node id up to top (nan where not drawn)."""
    hier = state.hierarchy
    lam0, wmean, lamhat, sqrt_lamhat = state.lam0, state.ev_wmean, state.lamhat, state.sqrt_lamhat
    z = iter(z)
    theta = [math.nan] * (top + 1)
    theta[ROOT] = state.root_mean + next(z) / sqrt_lamhat[ROOT]
    for v, p, zv in zip(hier.sample_nodes, hier.sample_parents, z):
        theta[v] = (theta[p] * lam0[v] + wmean[v]) / lamhat[v] + zv / sqrt_lamhat[v]
    return theta


class HierTSAgent:
    """Thompson sampling with the full tree posterior.

    The posterior lives on the tree that _sampled_tree returns, the acting
    tree itself here. Its leaves keep the acting tree's action order, so an
    action maps to its leaf by position (Hierarchy.action_position).
    """

    kind = "HierTS"

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
        self.hierarchy = hierarchy
        self.rng = rng
        tree, tree_prior = self._sampled_tree(hierarchy, prior)
        if prior.is_scalar:
            self.state: PosteriorState | LinearPosteriorState = PosteriorState(tree, tree_prior)
        else:
            self.state = LinearPosteriorState(tree, tree_prior)
        self._leaves = tree.action_nodes.tolist()
        self.sample_ops = 0

    @staticmethod
    def _sampled_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
        return hierarchy, prior

    def sample_model(self, size: int | None = None) -> np.ndarray:
        theta = hierts_sample(self.state, self.rng, size)
        self.sample_ops += self.state.hierarchy.num_nodes * (1 if size is None else int(size))
        return theta

    def act(self, context: np.ndarray | None = None) -> int:
        theta = self.sample_model()[self.state.hierarchy.leaf_index]
        return int(self.hierarchy.action_nodes[_argmax_score(theta, context)])

    def update(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        leaf = self._leaves[self.hierarchy.action_position(action)]
        if isinstance(self.state, PosteriorState):
            _context(context, None)
            self.state.update_path(leaf, reward)
        else:
            self.state.update_path(leaf, context, reward)  # which checks the context first

    def marginal_action_moments(self, action: int):
        return self.state.marginal_action_moments(self._leaves[self.hierarchy.action_position(action)])


class FlatTSAgent(HierTSAgent):
    """HierTS on the two-level collapse of the tree (flatten_hierarchy).

    Keeps each action's marginal prior and the shared root effect but
    forgets all intermediate structure.
    """

    kind = "FlatTS"

    @staticmethod
    def _sampled_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
        return _flat_tree(hierarchy, prior)


class TSAgent:
    """Independent conjugate Gaussian posterior per arm.

    Each arm's prior is its marginal under the tree prior, so all structure
    is discarded but the round-one behavior matches the other agents. Each
    arm keeps its precision form (prec, wmean) and the moments a draw reads,
    which update refreshes for the acted arm: mean, and sd = sqrt(prec) for a
    scalar prior or cov and a sampling factor (factor @ factor.T = cov) for a
    matrix prior. A matrix prior keeps each arm's prec beside its cov in one
    (K, 2, d, d) array, the pair the conditional kernel reads and writes.
    """

    kind = "TS"

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
        self.hierarchy = hierarchy
        self.rng = rng
        self.noise_prec = 1.0 / prior.noise_std**2
        self._scalar = prior.is_scalar
        arrays = [a.copy() for a in _ts_prior(hierarchy, prior)]
        if self._scalar:
            self.prec, self.wmean, self.mean, self.sd = arrays
        else:
            self.dim = prior.dim
            self._prec_cov, self.wmean, self.factor, self.mean = arrays
            self.prec, self.cov = self._prec_cov[:, 0], self._prec_cov[:, 1]

    def marginal_action_moments(self, action: int):
        """Posterior (mean, variance or covariance) of one arm."""
        j = self.hierarchy.action_position(action)
        if self._scalar:
            return float(self.mean[j]), float(1.0 / self.prec[j])
        return self.mean[j].copy(), self.cov[j].copy()

    def act(self, context: np.ndarray | None = None) -> int:
        leaves = self.hierarchy.action_nodes
        if self._scalar:
            draws = self.rng.standard_normal(leaves.size)
            draws /= self.sd
            draws += self.mean
        else:
            draws = self.mean + (self.factor @ self.rng.standard_normal((leaves.size, self.dim, 1)))[..., 0]
        return int(leaves[_argmax_score(draws, context)])

    def update(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        j = self.hierarchy.action_position(action)
        if self._scalar:
            _context(context, None)
            if not math.isfinite(reward):
                raise ValueError(f"reward must be finite, got {reward}")
            prec = self.prec[j] = self.prec.item(j) + self.noise_prec
            wmean = self.wmean[j] = self.wmean.item(j) + reward * self.noise_prec
            self.mean[j], self.sd[j] = wmean / prec, math.sqrt(prec)
        else:
            _add_observation(self.prec[j], self.wmean[j], context, reward, self.noise_prec)
            _arm_posterior(self._prec_cov[j], self.wmean[j], self.factor[j], self.mean[j], j)


# Each agent of a cell's instances starts from the same tree and prior, so
# FlatTS's flat tree and TS's per-arm prior are built once per cell. Hierarchy
# and PriorSpec hash by identity, so a cached entry never serves another cell.
@functools.lru_cache(maxsize=1)
def _flat_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
    """(flat tree, flat prior); the flat leaves keep the tree's action order."""
    flat, flat_prior, _ = flatten_hierarchy(hierarchy, prior)
    return flat, flat_prior


@functools.lru_cache(maxsize=1)
def _ts_prior(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[np.ndarray, ...]:
    """Read-only per-arm prior arrays of TSAgent, each arm's prior being its tree marginal.

    (prec, wmean, mean, sd) for a scalar prior; (prec_cov, wmean, factor,
    mean) for a matrix prior, with each arm's prec and cov stacked in prec_cov.
    """
    leaves = hierarchy.action_nodes
    marginal = marginal_prior_variances(hierarchy, prior)
    if prior.is_scalar:
        prec = 1.0 / marginal[leaves]
        wmean = prec * float(prior.hyper_mean)
        arrays = (prec, wmean, wmean / prec, np.sqrt(prec))
    else:
        prec = _sym(np.linalg.inv(marginal[leaves]))
        wmean = prec @ np.asarray(prior.hyper_mean, float)
        prec_cov = np.stack([prec, np.empty_like(prec)], axis=1)
        factor, mean = np.empty_like(prec), np.empty_like(wmean)
        for j in range(leaves.size):
            _arm_posterior(prec_cov[j], wmean[j], factor[j], mean[j], j)
        arrays = (prec_cov, wmean, factor, mean)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _arm_posterior(prec_cov: np.ndarray, wmean: np.ndarray, factor: np.ndarray, mean: np.ndarray, j: int) -> None:
    """One arm's covariance (into prec_cov[1]), its sampling factor and mean, from its precision form."""
    li = _conditional(prec_cov, f"arm {j} covariance")
    factor[...] = li.T
    np.matmul(prec_cov[1], wmean, out=mean)


def make_agent(kind: str, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
    if kind == "HierTS":
        return HierTSAgent(hierarchy, prior, rng)
    if kind == "FlatTS":
        return FlatTSAgent(hierarchy, prior, rng)
    if kind == "TS":
        return TSAgent(hierarchy, prior, rng)
    raise ValueError(f"unknown agent kind {kind!r}; expected one of {AGENT_KINDS}")
