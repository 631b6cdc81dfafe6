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


def _argmax_score(values: np.ndarray, context) -> int:
    """Position of the largest value of a k-armed model's (K,) values, whose context must be None, or of
    the scores values @ context of a linear model's (K, d) values, whose context must have shape (d,).
    ValueError otherwise, or unless that score is finite, since np.argmax picks the first NaN that a NaN or
    inf in the context makes."""
    if values.ndim == 1:
        _context(context, None)
        return int(values.argmax())
    scores = values @ _context(context, values.shape[1])
    j = int(scores.argmax())
    if not math.isfinite(scores[j]):
        raise ValueError(f"context must be finite, got {context}")
    return j


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
    message (the root sends none) and the conditional it caches; _tallies(), the leaf tallies every cache follows
    from; and _set_tallies(tallies), which gives a fresh state those tallies and its leaves' evidence from them (one
    and the same in the linear model). Both states write _refresh as one loop on local names with no call per
    node, over their own per-node values: the scalar state's float lists, the linear state's array rows bound once
    as views. update_path refreshes the acted leaf's root path (_root_paths), and _from_tallies every node; the
    root ends both walks, and a state's build.

    A state has one way to be copied, _from_tallies: rebuild, pickle, copy.copy and copy.deepcopy (__reduce__) all
    build a fresh state from the tallies, so a twin holds the original's bytes in arrays and views of its own, and
    no LockstepDraw column.
    """

    @classmethod
    def _from_tallies(cls, hierarchy: Hierarchy, prior: PriorSpec, tallies):
        """A fresh state given tallies, every node refreshed bottom-up."""
        out = cls(hierarchy, prior)
        out._set_tallies(tallies)
        out._refresh(hierarchy.sample_nodes[::-1] + (ROOT,))  # heights ascend; one height's nodes are independent
        return out

    def rebuild(self):
        """Fresh state recomputed bottom-up from the leaf tallies."""
        return self._from_tallies(self.hierarchy, self.prior, self._tallies())

    def __reduce__(self):
        """Pickle and copy as _from_tallies of this state's tallies, so no view or LockstepDraw column carries over."""
        return self._from_tallies, (self.hierarchy, self.prior, self._tallies())


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
    _refresh, on local names and without a call per node. draw walks the
    same floats.

    The lists are the one truth. _refresh writes a numpy copy through, by a
    memoryview bound where the copy is made or re-homed (a memoryview store
    costs less than a numpy scalar store), only where numpy reads it in a
    round:
    - level_copies, (lam0, ev_wmean, lamhat, sqrt_lamhat) of every node as
      the state's columns of a LockstepDraw's arrays, which _hold_levels
      sets when the state joins that draw; None before;
    - msg_prec and msg_wmean of the children of a parent with more than
      SHORT_SUM_MAX children, as the two rows of one (2, num_nodes + 1)
      array (_msg_pair), which _refresh sums with one numpy reduction, each
      row's pairwise sum, over a slice view when the child ids are
      consecutive and over a gathered copy otherwise.
    A shorter child list is summed left to right from 0.0, which is the order
    numpy's sum takes for at most SHORT_SUM_MAX elements. Every other reader
    (marginal_action_moments, posterior_precisions, the checks) works on the
    floats or on arrays built from them on request.

    Single-writer: update_path mutates in place, reads are safe between
    updates but not during one. A pickled or copied state is rebuilt from
    the tallies counts and reward_sums (_UpwardPass._from_tallies).
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
        self._hold_levels(None)
        # _refresh writes the message of each node whose parent is wide (_wide_child) through to _msg_pair, the
        # rows (msg_prec, msg_wmean) that one reduction sums
        self._msg_pair = np.zeros((2, n + 1))
        self._msg_views = tuple(map(memoryview, self._msg_pair))
        self._wide_child = (np.diff(hierarchy.child_start) > SHORT_SUM_MAX)[hierarchy.parent].tolist()
        self._refresh((ROOT,))

    def _hold_levels(self, copies: tuple | None) -> None:
        """Write through to copies (level_copies; None for none) from here on, by the views bound here."""
        self.level_copies = copies
        self._level_views = None if copies is None else tuple(map(memoryview, copies[1:]))

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

        One standard-normal draw of num_nodes values, consumed root first, then level by level, walking
        Hierarchy.sample_nodes on the float lists node by node. A LockstepDraw's column applies the same
        operations to the same operands, so it equals this draw bit for bit.
        """
        hier = self.hierarchy
        lam0, wmean, lamhat, sqrt_lamhat = self.lam0, self.ev_wmean, self.lamhat, self.sqrt_lamhat
        z = iter(rng.standard_normal(hier.num_nodes).tolist())
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
        msg_pair, (view_prec, view_wmean) = self._msg_pair, self._msg_views
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
                else:  # one reduction, each row's own pairwise sum; a fancy index here would give a column-major
                    # copy, whose rows numpy sums in another order, so gathered ids go through take
                    pool = msg_pair[:, ch] if type(ch) is slice else msg_pair.take(ch, axis=1)
                    prec, wmean = add_reduce(pool, axis=1).tolist()
                ev_prec[node], ev_wmean[node] = prec, wmean
            lam0 = lam0s[node]
            lamhat = lamhats[node] = lam0 + prec
            sqrt_lamhat = sqrts[node] = sqrt(lamhat)
            if levels is not None:
                level_wmean[node], level_lamhat[node], level_sqrt[node] = wmean, lamhat, sqrt_lamhat
            if node == ROOT:
                self.root_mean = (lam0 * self.hyper_mean + wmean) / lamhat
                break
            msg_p = msg_prec[node] = prec * lam0 / lamhat
            msg_w = msg_wmean[node] = lam0 / lamhat * wmean
            if wide_child[node]:
                view_prec[node], view_wmean[node] = msg_p, msg_w

    def _tallies(self) -> tuple[list, list]:
        return self.counts, self.reward_sums

    def _set_tallies(self, tallies: tuple[list, list]) -> None:
        self.counts[:], self.reward_sums[:] = tallies
        for leaf in self.hierarchy.action_nodes.tolist():
            self.ev_prec[leaf] = self.counts[leaf] * self.noise_prec
            self.ev_wmean[leaf] = self.reward_sums[leaf] * self.noise_prec

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
    """The scalar draws of M PosteriorStates of one tree and prior, made together in one level loop (draw).

    The states' floats of lam0, ev_wmean, lamhat and sqrt_lamhat become the columns of node-major
    (num_nodes + 1, M) arrays, copies, column j state j's, which each state's write-through keeps current from here
    on (_hold_levels binds its views to its column). order lists the draw positions, the root first and then
    Hierarchy.sample_nodes (a slice when consecutive); rows holds the views of the levels whose ids are a slice,
    bound once here. One numpy level serves M draws, and column j of draw(z) equals state j's own draw, on floats,
    from the same normals bit for bit. M = 1 is allowed.
    """

    def __init__(self, states: list[PosteriorState]):
        hier, prior = states[0].hierarchy, states[0].prior
        if any(type(s) is not PosteriorState or s.hierarchy is not hier or s.prior is not prior for s in states):
            raise ValueError("a lockstep draw takes scalar posterior states of one tree and prior")
        self.states = states
        self.order = _as_index(np.array((ROOT,) + hier.sample_nodes))
        self.copies = lam0, wmean, lamhat, _ = tuple(np.array([getattr(s, name) for s in states]).T.copy()
                                                     for name in ("lam0", "ev_wmean", "lamhat", "sqrt_lamhat"))
        for j, state in enumerate(states):
            state._hold_levels(tuple(c[:, j] for c in self.copies))
        self.rows = [(lam0[nodes], wmean[nodes], lamhat[nodes]) if type(nodes) is slice else None
                     for nodes, _, _, _ in hier.level_index]

    def draw(self, z: np.ndarray) -> np.ndarray:
        """Node parameters of every state, (num_nodes + 1, M), column j state j's, from the round's normals z:
        node-major (num_nodes, M), column j the normals of state j's own draw, a row per draw position. z is
        divided in place.

        A level gathers its parents with take; a level with bound rows computes straight into theta's rows, and
        any other indexes the copies on each draw (a fancy index is a copy, which would go stale) and writes its
        values back. Each element sees the operations of PosteriorState.draw in the same order."""
        lam0, wmean, lamhat, sqrt_lamhat = self.copies
        root_mean = np.array([s.root_mean for s in self.states])
        z /= sqrt_lamhat[self.order]
        theta = np.empty(wmean.shape)
        theta[0] = np.nan
        theta[ROOT] = root_mean + z[0]
        for (nodes, parents, start, stop), bound in zip(self.states[0].hierarchy.level_index, self.rows):
            lam0_rows, wmean_rows, lamhat_rows = bound or (lam0[nodes], wmean[nodes], lamhat[nodes])
            parent_mean = theta.take(parents, axis=0)
            mean = np.multiply(parent_mean, lam0_rows, out=parent_mean if bound is None else theta[nodes])
            mean += wmean_rows
            mean /= lamhat_rows
            mean += z[start:stop]
            if bound is None:
                theta[nodes] = mean
        return theta
