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


class _UpwardPass:
    """Leaf-to-root pass over the ev_* (pooled evidence) and msg_* (message) caches.

    Subclasses supply _pool(node), which sums a parent's child messages into
    its evidence; _fold(node), evidence to message; _fold_root(), which
    refreshes the root's cached conditional (the root sends no message); and
    _copy_tallies(out), which gives a fresh state this one's leaf tallies and
    evidence (one and the same in the linear model).
    """

    @property
    def num_nodes(self) -> int:
        return self.hierarchy.num_nodes

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
        for node in sorted(range(2, hier.num_nodes + 1), key=lambda i: int(hier.height[i])):
            if hier.children[node].size:
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

    The lists are the one truth. A numpy copy is written through, by _fold
    and _fold_root, only where numpy reads it in a round:
    - ev_wmean, lamhat and sqrt_lamhat, once hierts_sample's level loop has
      asked for them (level_arrays builds them from the floats on that first
      request, so a forced level draw never reads a stale copy);
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
        self._children = [ch.tolist() if ch.size <= SHORT_SUM_MAX else _as_index(ch) for ch in hierarchy.children]
        self._levels = None  # level_arrays' copies, once asked for
        # per node, the (msg_prec, msg_wmean) copies _fold writes its message to; a wide parent's children only
        self._msg_copies = [None] * (n + 1)
        if hierarchy.branching_factor > SHORT_SUM_MAX:
            self._msg_arrays = np.zeros(n + 1), np.zeros(n + 1)
            wide = [type(ch) is not list for ch in self._children]
            self._msg_copies = [self._msg_arrays if wide[p] else None for p in hierarchy.parent_ids]
        self._fold_root()

    def level_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lam0, ev_wmean, lamhat, sqrt_lamhat) as numpy arrays, which hierts_sample's level loop reads.

        The first call builds them from the floats; from then on every fold
        writes the last three through.
        """
        if self._levels is None:
            self._levels = tuple(np.array(x) for x in (self.lam0, self.ev_wmean, self.lamhat, self.sqrt_lamhat))
        return self._levels

    def posterior_precisions(self) -> np.ndarray:
        """Conditional posterior precision of every node, shape (num_nodes + 1,); slot 0 is nan."""
        return np.array(self.lamhat)

    def update_path(self, action: int, reward: float) -> None:
        """Record one reward and refresh messages along the leaf's root path."""
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        count = self.counts[action] = self.counts[action] + 1.0
        total = self.reward_sums[action] = float(self.reward_sums[action] + reward)
        self.ev_prec[action] = count * self.noise_prec
        self.ev_wmean[action] = total * self.noise_prec
        self._walk(action)

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
        levels = self._levels
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
        levels = self._levels
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

        Composes the cached conditionals that hierts_sample reads (root_mean,
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
