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

import functools
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


def _level_rows(hier: Hierarchy, copies: tuple) -> list:
    """Per level of hier.level_index, the level's (lam0, ev_wmean, lamhat) rows of copies as views when its ids are
    a slice, else None: a fancy index gives a copy, which would go stale, so _level_loop indexes those on each draw."""
    lam0, wmean, lamhat, _ = copies
    return [(lam0[nodes], wmean[nodes], lamhat[nodes]) if type(nodes) is slice else None
            for nodes, _, _, _ in hier.level_index]


def _level_loop(hier: Hierarchy, order, copies: tuple, rows: list, z: np.ndarray, root_mean) -> np.ndarray:
    """The level loop of a scalar draw over copies, which are (lam0, ev_wmean, lamhat, sqrt_lamhat) indexed by node
    id: one draw's (num_nodes + 1,) arrays, or for M draws in lockstep node-major (num_nodes + 1, M) arrays, column j
    draw j's (lam0 too: a broadcast costs more). order is _level_order's and rows _level_rows' of copies; z holds the
    normals of the draw positions, a row per position, and is divided in place; root_mean is the root's posterior
    mean (a float, or one per column). A level gathers its parents' values with a fancy index on one column and
    with take on node-major arrays, the faster on each shape; a level with bound rows computes straight into
    theta's rows, and any other writes its values back. Every element sees the same IEEE operations in the same
    order whatever the number of columns, so a column equals its own draw bit for bit."""
    lam0, wmean, lamhat, sqrt_lamhat = copies
    z /= sqrt_lamhat[order]
    theta = np.empty(wmean.shape)
    theta[0] = np.nan
    theta[ROOT] = root_mean + z[0]
    for (nodes, parents, start, stop), bound in zip(hier.level_index, rows):
        lam0_rows, wmean_rows, lamhat_rows = bound or (lam0[nodes], wmean[nodes], lamhat[nodes])
        parent_mean = theta[parents] if theta.ndim == 1 else theta.take(parents, axis=0)
        mean = np.multiply(parent_mean, lam0_rows, out=parent_mean if bound is None else theta[nodes])
        mean += wmean_rows
        mean /= lamhat_rows
        mean += z[start:stop]
        if bound is None:
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


@functools.lru_cache(maxsize=2)
def _root_paths(hier: Hierarchy) -> list:
    """Each leaf's path up to the root, leaf first, as a list of ids in a list indexed by leaf id (None for the
    other ids). Every state of a tree reads the same list; two entries hold a cell's tree and FlatTS's flat tree."""
    paths, up = [None] * (hier.num_nodes + 1), hier.parent_ids
    for leaf in hier.action_nodes.tolist():
        path = paths[leaf] = [leaf]
        while path[-1] != ROOT:
            path.append(up[path[-1]])
    return paths


class _UpwardPass:
    """Leaf-to-root pass over the ev_* (pooled evidence) and msg_* (message) caches.

    Subclasses supply _refresh(nodes), which visits nodes in the order given, each node after its children and
    the root last: a parent's evidence pools its children's messages, and each node's evidence folds into its
    message (the root sends none) and the conditional it caches; and _copy_tallies(out), which gives a fresh state
    this one's leaf tallies and evidence (one and the same in the linear model). update_path refreshes the acted
    leaf's root path (_root_paths), and rebuild every node.
    """

    def rebuild(self):
        """Fresh state recomputed bottom-up from the leaf tallies."""
        out = type(self)(self.hierarchy, self.prior)
        self._copy_tallies(out)
        out._refresh(self.hierarchy.sample_nodes[::-1] + (ROOT,))  # heights ascend; one height's nodes are independent
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
    the same operands in the same order. Both run the one refresh loop,
    _refresh, on local names and without a call per node.

    level_order is draw's route from _level_order: None for floats
    throughout, else the level loop's order of draw positions. It depends
    only on the tree and FLOAT_DRAW_NODES_PER_LEVEL, so it is chosen here.

    The lists are the one truth. _refresh writes a numpy copy through, by a
    memoryview bound where the copy is made or re-homed (a memoryview store
    costs less than a numpy scalar store), only where numpy reads it in a
    round:
    - level_copies, (lam0, ev_wmean, lamhat, sqrt_lamhat) of every node as
      arrays built here from the floats when the route is the level loop,
      else None. A LockstepDraw replaces them with columns of its own
      arrays, and sets level_order, whatever the route was: from then on
      the state's own draw runs the level loop on its column (_hold_levels
      binds the views in both places);
    - msg_prec and msg_wmean of the children of a parent with more than
      SHORT_SUM_MAX children, which _refresh sums with numpy's pairwise sum,
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
        self._paths = _root_paths(hierarchy)
        # child ids as the list _refresh folds in Python, or for wider parents as numpy's index; None for a leaf
        ids, start = hierarchy.child_ids.tolist(), hierarchy.child_start.tolist()
        self._children = [None if a == b else ids[a:b] if b - a <= SHORT_SUM_MAX
                          else _as_index(hierarchy.child_ids[a:b]) for a, b in zip(start, start[1:])]
        order = _level_order(hierarchy, FLOAT_DRAW_NODES_PER_LEVEL)
        self._hold_levels(order, None if order is None else
                          (lam0, *map(np.array, (self.ev_wmean, self.lamhat, self.sqrt_lamhat))))
        # _refresh writes the message of each node whose parent is wide (_wide_child) through to _msg_arrays
        self._msg_arrays = np.zeros(n + 1), np.zeros(n + 1)
        self._msg_views = tuple(map(memoryview, self._msg_arrays))
        self._wide_child = (np.diff(hierarchy.child_start) > SHORT_SUM_MAX)[hierarchy.parent].tolist()
        self._refresh((ROOT,))

    def _hold_levels(self, order, copies: tuple | None) -> None:
        """Draw on route order over copies from here on, writing through to them by the views bound here."""
        self.level_order, self.level_copies = order, copies
        self._level_views = None if copies is None else tuple(map(memoryview, copies[1:]))
        self._level_rows = None if copies is None else _level_rows(self.hierarchy, copies)

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
        total = self.reward_sums[action] = self.reward_sums[action] + float(reward)  # float32 would stay float32
        self.ev_prec[action] = count * self.noise_prec
        self.ev_wmean[action] = total * self.noise_prec
        self._refresh(self._paths[action])

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
            return _level_loop(hier, self.level_order, self.level_copies, self._level_rows, z, self.root_mean)
        lam0, wmean, lamhat, sqrt_lamhat = self.lam0, self.ev_wmean, self.lamhat, self.sqrt_lamhat
        z = iter(z.tolist())
        theta = [math.nan] * len(lam0)
        theta[ROOT] = self.root_mean + next(z) / sqrt_lamhat[ROOT]
        for v, p, zv in zip(hier.sample_nodes, hier.sample_parents, z):
            theta[v] = (theta[p] * lam0[v] + wmean[v]) / lamhat[v] + zv / sqrt_lamhat[v]
        return np.array(theta)

    def _refresh(self, nodes) -> None:
        """_UpwardPass's refresh as one loop on local names, with no call per node but numpy's wide-parent sums."""
        lam0s, ev_prec, ev_wmean, lamhats, sqrts = self.lam0, self.ev_prec, self.ev_wmean, self.lamhat, self.sqrt_lamhat
        msg_prec, msg_wmean, children, wide_child = self.msg_prec, self.msg_wmean, self._children, self._wide_child
        levels, sqrt, add_reduce = self._level_views, math.sqrt, np.add.reduce
        if levels is not None:
            level_wmean, level_lamhat, level_sqrt = levels
        (wide_prec, wide_wmean), (view_prec, view_wmean) = self._msg_arrays, self._msg_views
        for node in nodes:
            ch = children[node]
            if ch is None:  # a leaf: its evidence comes from its tallies
                prec, wmean = ev_prec[node], ev_wmean[node]
            else:
                if type(ch) is list:
                    prec = wmean = 0.0
                    for c in ch:
                        prec += msg_prec[c]
                        wmean += msg_wmean[c]
                else:
                    prec, wmean = float(add_reduce(wide_prec[ch])), float(add_reduce(wide_wmean[ch]))
                ev_prec[node], ev_wmean[node] = prec, wmean
            lam0 = lam0s[node]
            lamhat = lamhats[node] = lam0 + prec
            sqrt_lamhat = sqrts[node] = sqrt(lamhat)
            if levels is not None:
                level_wmean[node], level_lamhat[node], level_sqrt[node] = wmean, lamhat, sqrt_lamhat
            if node == ROOT:
                break
            msg_p = msg_prec[node] = prec * lam0 / lamhat
            msg_w = msg_wmean[node] = lam0 / lamhat * wmean
            if wide_child[node]:
                view_prec[node], view_wmean[node] = msg_p, msg_w
        self.root_mean = (lam0 * self.hyper_mean + wmean) / lamhat

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
    lamhat and sqrt_lamhat, column j state j's, which each state's write-through keeps current from here on: each
    state rebinds its views to its column (_hold_levels). The route is always the level loop from the root, since
    one numpy level serves M draws; rows holds the views of the levels whose ids are a slice, bound once here
    (_level_rows). Column j of draw(z) equals state j's own draw from the same normals bit for bit (_level_loop);
    the state's own draw runs the level loop on its column from here on, whichever route it took before.
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
            state._hold_levels(self.order, tuple(c[:, j] for c in self.copies))
        self.rows = _level_rows(hier, self.copies)

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Node parameters of every state, (num_nodes + 1, M), column j state j's, from the round's normals z:
        node-major (num_nodes, M), column j the normals of state j's own draw. z is divided in place."""
        root_mean = np.array([s.root_mean for s in self.states])
        return _level_loop(self.states[0].hierarchy, self.order, self.copies, self.rows, z, root_mean)
