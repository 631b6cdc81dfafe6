"""Exact recursive posterior for the K-armed Gaussian hierarchy.

Upward likelihood messages are kept in precision form (precision,
precision * mean). The mean form breaks down for empty subtrees, while the
precision form extends continuously to zero observations: a node with no
data below it sends the zero message and drops out of every sum.

For a node with conditional prior variance s0 and aggregated below-evidence
(P, W), where P sums child message precisions (or count / noise_var at a
leaf) and W the matching weighted means:

    message to parent:   prec = P * l0 / (P + l0),  wmean = l0 / (P + l0) * W
    posterior | parent:  precision l0 + P, mean (l0 * parent + W) / (l0 + P)

with l0 = 1 / s0. Both follow from completing the square in the product of
the conditional prior and the subtree likelihood.
"""
from __future__ import annotations

import math

import numpy as np

from .hierarchy import ROOT, Hierarchy, HierarchyError, PriorSpec, _as_index

__all__ = ["PosteriorState"]

# numpy sums at most this many float64 values left to right from 0.0, so a
# Python fold over that many gives the same bits; past it numpy switches to
# pairwise blocks. tests/test_posterior.py::test_numpy_short_sum_is_a_left_fold
# pins this for the installed numpy.
SHORT_SUM_MAX = 7


# A scalar draw walks the tree node by node on Python floats where every level has at most this many nodes, or
# where the tree has fewer than this many nodes per level, and else runs numpy's level loop from the root: a numpy
# level costs about as much as this many float nodes. Both routes give the same bits, so this only moves time
# (timings in the README). PosteriorState reads it once, when it is built.
FLOAT_DRAW_NODES_PER_LEVEL = 16


def _level_order(hier: Hierarchy, r: int) -> slice | np.ndarray | None:
    """A scalar draw's route at FLOAT_DRAW_NODES_PER_LEVEL = r: None for floats throughout, else the ids of the level
    loop's draw positions, the root first and then Hierarchy.sample_nodes (a slice when consecutive). No level has
    fewer nodes than the one above it, so the last level is the widest."""
    levels = hier.level_index
    if levels[-1][3] - levels[-1][2] <= r or hier.num_nodes < r * len(levels):
        return None
    return _as_index(np.array((ROOT,) + hier.sample_nodes))


def _level_loop(hier: Hierarchy, order, copies: tuple, z: np.ndarray, root_mean) -> np.ndarray:
    """The level loop of a scalar draw over copies, which are (lam0, ev_wmean, lamhat, sqrt_lamhat) indexed by node
    id: one draw's (num_nodes + 1,) arrays, or for M draws in lockstep node-major (num_nodes + 1, M) arrays, column j
    draw j's (lam0 too: a broadcast costs more). order is _level_order's; z holds the normals of the draw positions,
    a row per position, and is divided in place; root_mean is the root's posterior mean (a float, or one per column).
    Every element sees the same IEEE operations in the same order whatever the number of columns, so a column equals
    its own draw bit for bit."""
    lam0, wmean, lamhat, sqrt_lamhat = copies
    z /= sqrt_lamhat[order]
    theta = np.empty(wmean.shape)
    theta[0] = np.nan
    theta[ROOT] = root_mean + z[0]
    for nodes, parents, start, stop in hier.level_index:
        mean = theta[parents]
        mean *= lam0[nodes]
        mean += wmean[nodes]
        mean /= lamhat[nodes]
        mean += z[start:stop]
        theta[nodes] = mean
    return theta


def _context(context, dim: int | None) -> np.ndarray | None:
    """The context as a float vector, or None for the k-armed model (dim None); ValueError unless it fits."""
    if dim is None:
        if context is not None:
            raise ValueError(f"context must be None for the k-armed model, got shape {np.shape(context)}")
        return None
    x = np.asarray(context, float)
    if context is None or x.shape != (dim,):
        raise ValueError(f"context must have shape ({dim},), got {None if context is None else x.shape}")
    return x


class _UpwardPass:
    """Leaf-to-root pass over the ev_* (pooled evidence) and msg_* (message) caches.

    Subclasses supply _pool(node), which sums a parent's child messages into
    its evidence; _fold(node), evidence to message; _fold_root(), which
    refreshes the root's cached conditional (the root sends no message); and
    _copy_tallies(out), which gives a fresh state this one's leaf tallies and
    evidence (one and the same in the linear model).
    """

    def _walk(self, node: int) -> None:
        """Fold node and each ancestor below the root, pooling every parent's children."""
        parent = self.hierarchy.parent_ids
        while node != ROOT:
            self._fold(node)
            node = parent[node]
            self._pool(node)
        self._fold_root()

    def rebuild(self):
        """Fresh state recomputed bottom-up from the leaf tallies."""
        out = type(self)(self.hierarchy, self.prior)
        self._copy_tallies(out)
        hier = self.hierarchy
        for node in reversed(hier.sample_nodes):  # heights ascend; the nodes of one height are independent
            if hier.action_index[node] < 0:
                out._pool(node)
            out._fold(node)
        out._pool(ROOT)
        out._fold_root()
        return out


class PosteriorState(_UpwardPass):
    """Sufficient statistics plus cached upward messages for one agent.

    Every per-node value is a Python float in a list indexed by node id (slot
    0 unused): the tallies counts and reward_sums, lam0, the evidence ev_*,
    the messages msg_*, and each node's conditional precision lamhat = l0 + P
    and sqrt_lamhat; the root also caches its posterior mean root_mean.
    update_path refreshes only the acted leaf's root path, recomputing each
    path node's evidence from its children's cached messages; the result is
    identical to a full bottom-up rebuild because the per-node reductions see
    the same operands in the same order.

    level_order is draw's route from _level_order: None for floats
    throughout, else the level loop's order of draw positions. It depends
    only on the tree and FLOAT_DRAW_NODES_PER_LEVEL, so it is chosen here.

    The lists are the one truth. A numpy copy is written through, by _fold
    and _fold_root, only where numpy reads it in a round:
    - level_copies, (lam0, ev_wmean, lamhat, sqrt_lamhat) of every node as
      arrays built here from the floats when the route is the level loop,
      else None. A LockstepDraw replaces them with columns of its own
      arrays, and sets level_order, whatever the route was: from then on
      the state's own draw runs the level loop on its column;
    - msg_prec and msg_wmean of the children of a parent with more than
      SHORT_SUM_MAX children, which _pool sums with numpy's pairwise sum,
      over a slice view when the child ids are consecutive and over a
      gathered copy otherwise.
    A shorter child list is summed left to right from 0.0, which is the order
    numpy's sum takes for at most SHORT_SUM_MAX elements. Every other reader
    (marginal_action_moments, posterior_precisions, the checks) works on the
    floats or on arrays built from them on request.

    Single-writer: update_path mutates in place, reads are safe between
    updates but not during one.
    """

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec):
        if not prior.is_scalar:
            raise HierarchyError("PosteriorState requires a scalar prior; see LinearPosteriorState")
        self.hierarchy = hierarchy
        self.prior = prior
        self.noise_prec = float(1.0 / prior.noise_std**2)
        self.hyper_mean = float(prior.hyper_mean)
        n = hierarchy.num_nodes
        lam0 = 1.0 / prior.variances(hierarchy)
        self.lam0 = lam0.tolist()
        self.counts, self.reward_sums = [0.0] * (n + 1), [0.0] * (n + 1)
        self.ev_prec, self.ev_wmean = [0.0] * (n + 1), [0.0] * (n + 1)
        self.msg_prec, self.msg_wmean = [0.0] * (n + 1), [0.0] * (n + 1)
        self.lamhat = list(self.lam0)  # no evidence yet: lamhat = lam0
        self.sqrt_lamhat = np.sqrt(lam0).tolist()
        # child ids as the list _pool folds in Python, or for wider parents as numpy's index
        ids, start = hierarchy.child_ids.tolist(), hierarchy.child_start.tolist()
        self._children = [ids[a:b] if b - a <= SHORT_SUM_MAX else _as_index(hierarchy.child_ids[a:b])
                          for a, b in zip(start, start[1:])]
        self.level_order = _level_order(hierarchy, FLOAT_DRAW_NODES_PER_LEVEL)
        self.level_copies = None
        if self.level_order is not None:
            self.level_copies = (lam0, *map(np.array, (self.ev_wmean, self.lamhat, self.sqrt_lamhat)))
        # per node, the (msg_prec, msg_wmean) copies _fold writes its message to; a wide parent's children only
        self._msg_copies = [None] * (n + 1)
        if hierarchy.branching_factor > SHORT_SUM_MAX:
            self._msg_arrays = np.zeros(n + 1), np.zeros(n + 1)
            wide = [type(ch) is not list for ch in self._children]
            self._msg_copies = [self._msg_arrays if wide[p] else None for p in hierarchy.parent_ids]
        self._fold_root()

    def posterior_precisions(self) -> np.ndarray:
        """Conditional posterior precision of every node, shape (num_nodes + 1,); slot 0 is nan."""
        return np.array(self.lamhat)

    def update_path(self, action: int, reward: float, context: None = None) -> None:
        """Record one reward and refresh messages along the leaf's root path; the k-armed model takes no context."""
        _context(context, None)
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        count = self.counts[action] = self.counts[action] + 1.0
        total = self.reward_sums[action] = float(self.reward_sums[action] + reward)
        self.ev_prec[action] = count * self.noise_prec
        self.ev_wmean[action] = total * self.noise_prec
        self._walk(action)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Node parameters from the exact joint posterior, root downward, indexed by node id (slot 0 nan).

        One standard-normal draw of num_nodes values, consumed root first, then level by level. Without
        level_copies the draw walks Hierarchy.sample_nodes on the float lists, node by node; with them it runs
        numpy's level loop. Both apply the per-level formula's operations to the same operands, so the bits do
        not depend on the route (the README has the route rule and its timings).
        """
        hier = self.hierarchy
        z = rng.standard_normal(hier.num_nodes)
        if self.level_copies is not None:
            return _level_loop(hier, self.level_order, self.level_copies, z, self.root_mean)
        lam0, wmean, lamhat, sqrt_lamhat = self.lam0, self.ev_wmean, self.lamhat, self.sqrt_lamhat
        z = iter(z.tolist())
        theta = [math.nan] * len(lam0)
        theta[ROOT] = self.root_mean + next(z) / sqrt_lamhat[ROOT]
        for v, p, zv in zip(hier.sample_nodes, hier.sample_parents, z):
            theta[v] = (theta[p] * lam0[v] + wmean[v]) / lamhat[v] + zv / sqrt_lamhat[v]
        return np.array(theta)

    def _pool(self, node: int) -> None:
        ch = self._children[node]
        if type(ch) is list:
            msg_prec, msg_wmean = self.msg_prec, self.msg_wmean
            prec = wmean = 0.0
            for c in ch:
                prec += msg_prec[c]
                wmean += msg_wmean[c]
        else:
            msg_prec, msg_wmean = self._msg_arrays
            prec, wmean = float(msg_prec[ch].sum()), float(msg_wmean[ch].sum())
        self.ev_prec[node] = prec
        self.ev_wmean[node] = wmean

    def _fold(self, node: int) -> None:
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        lamhat = self.lamhat[node] = lam0 + prec
        sqrt_lamhat = self.sqrt_lamhat[node] = math.sqrt(lamhat)
        msg_prec = self.msg_prec[node] = prec * lam0 / lamhat
        msg_wmean = self.msg_wmean[node] = lam0 / lamhat * wmean
        levels = self.level_copies
        if levels is not None:
            levels[1][node], levels[2][node], levels[3][node] = wmean, lamhat, sqrt_lamhat
        msg_copies = self._msg_copies[node]
        if msg_copies is not None:
            msg_copies[0][node], msg_copies[1][node] = msg_prec, msg_wmean

    def _fold_root(self) -> None:
        lam0, wmean = self.lam0[ROOT], self.ev_wmean[ROOT]
        lamhat = self.lamhat[ROOT] = lam0 + self.ev_prec[ROOT]
        sqrt_lamhat = self.sqrt_lamhat[ROOT] = math.sqrt(lamhat)
        self.root_mean = (lam0 * self.hyper_mean + wmean) / lamhat
        levels = self.level_copies
        if levels is not None:
            levels[1][ROOT], levels[2][ROOT], levels[3][ROOT] = wmean, lamhat, sqrt_lamhat

    def _copy_tallies(self, out: "PosteriorState") -> None:
        out.counts[:] = self.counts
        out.reward_sums[:] = self.reward_sums
        for leaf in self.hierarchy.action_nodes.tolist():
            out.ev_prec[leaf] = out.counts[leaf] * out.noise_prec
            out.ev_wmean[leaf] = out.reward_sums[leaf] * out.noise_prec

    def marginal_action_moments(self, action: int) -> tuple[float, float]:
        """Marginal posterior (mean, variance) of a leaf's parameter.

        Composes the cached conditionals that draw reads (root_mean,
        lamhat, lam0 and ev_wmean) down the root path: the marginal variance
        accumulates each node's conditional variance scaled by the squared
        slopes below it, and the mean chains slope * mean + intercept.
        """
        hier = self.hierarchy
        hier.action_position(action)  # HierarchyError unless a leaf
        mean = self.root_mean
        var = 1.0 / self.lamhat[ROOT]
        for node in hier.path_to_root(action)[1:].tolist():
            lamhat = self.lamhat[node]
            slope = self.lam0[node] / lamhat
            mean = slope * mean + self.ev_wmean[node] / lamhat
            var = slope * slope * var + 1.0 / lamhat
        return float(mean), float(var)


class LockstepDraw:
    """The scalar draws of M PosteriorStates of one tree and prior, made together in one level loop.

    The states' level copies become the columns of node-major (num_nodes + 1, M) arrays of lam0, ev_wmean,
    lamhat and sqrt_lamhat, column j state j's, which each state's write-through keeps current from here on. The
    route is always the level loop from the root, since one numpy level serves M draws. Column j of draw(z) equals
    state j's own draw from the same normals bit for bit (_level_loop); the state's own draw runs the level loop on
    its column from here on, whichever route it took before.
    """

    def __init__(self, states: list[PosteriorState]):
        hier, prior = states[0].hierarchy, states[0].prior
        if any(type(s) is not PosteriorState or s.hierarchy is not hier or s.prior is not prior for s in states):
            raise ValueError("a lockstep draw takes scalar posterior states of one tree and prior")
        self.states = states
        self.order = _level_order(hier, 0)
        self.copies = tuple(np.array([getattr(s, name) for s in states]).T.copy()
                            for name in ("lam0", "ev_wmean", "lamhat", "sqrt_lamhat"))
        for j, state in enumerate(states):
            state.level_order, state.level_copies = self.order, tuple(c[:, j] for c in self.copies)

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Node parameters of every state, (num_nodes + 1, M), column j state j's, from the round's normals z:
        node-major (num_nodes, M), column j the normals of state j's own draw. z is divided in place."""
        root_mean = np.array([s.root_mean for s in self.states])
        return _level_loop(self.states[0].hierarchy, self.order, self.copies, z, root_mean)
