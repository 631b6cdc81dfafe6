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
    """Leaf-to-root pass over the ev_* (pooled evidence) and msg_* (message) arrays.

    Subclasses supply _fold(node), evidence to message; _fold_root(), which
    refreshes the root's cached conditional (the root sends no message);
    _copy_tallies(out), which gives a fresh state this one's leaf tallies and
    evidence (one and the same in the linear model); and _children, each
    node's child ids as an index. _pool sums a parent's child messages with
    numpy; a subclass may pool faster if it keeps the sums bit-identical.
    """

    @property
    def num_nodes(self) -> int:
        return self.hierarchy.num_nodes

    def _pool(self, node: int) -> None:
        ch = self._children[node]
        self.ev_prec[node] = self.msg_prec[ch].sum(axis=0)
        self.ev_wmean[node] = self.msg_wmean[ch].sum(axis=0)

    def _walk(self, node: int) -> None:
        """Fold node and each ancestor below the root, pooling every parent's children."""
        hier = self.hierarchy
        while node != ROOT:
            self._fold(node)
            node = int(hier.parent[node])
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

    All caches are flat arrays indexed by node id (slot 0 unused) so that the
    sampling pass can run level by level with vectorized reads. Besides the
    messages, each node caches its conditional precision lamhat = l0 + P and
    sqrt_lamhat, and the root its posterior mean root_mean. update_path
    refreshes only the acted leaf's root path, recomputing each path node's
    evidence from its children's cached messages; the result is identical to
    a full bottom-up rebuild because the per-node reductions see the same
    operands in the same order.

    The path walk runs on Python floats: lam0, ev_*, msg_*, lamhat and
    sqrt_lamhat are mirrored as float lists, which the walk and hierts_sample's
    float draw read. Every write to those arrays also writes the mirror:
    update_path and _pool write ev_*, _fold is the only writer of msg_*,
    _fold and _fold_root are the only writers of lamhat and sqrt_lamhat, and
    _copy_tallies refreshes a rebuilt state's ev_* mirrors. _pool sums a
    short child list left to right from 0.0, which is the order numpy's sum
    takes for at most SHORT_SUM_MAX elements. A wider
    parent's messages are summed by numpy, over a slice view when its child
    ids are consecutive and over a gathered copy otherwise: either way one
    pairwise sum of the same contiguous values.

    Single-writer: update_path mutates in place, reads are safe between
    updates but not during one.
    """

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec):
        if not prior.is_scalar:
            raise HierarchyError("PosteriorState requires a scalar prior; see LinearPosteriorState")
        self.hierarchy = hierarchy
        self.prior = prior
        self.noise_prec = 1.0 / prior.noise_std**2
        self.hyper_mean = float(prior.hyper_mean)
        self.lam0 = 1.0 / prior.variances(hierarchy)
        n = hierarchy.num_nodes
        self._lam0 = self.lam0.tolist()
        self._ev_prec, self._ev_wmean = [0.0] * (n + 1), [0.0] * (n + 1)
        self._msg_prec, self._msg_wmean = [0.0] * (n + 1), [0.0] * (n + 1)
        # child ids as the list _pool folds in Python, or for wider parents as numpy's index
        self._children = [
            ch.tolist() if ch.size <= SHORT_SUM_MAX else _as_index(ch) for ch in hierarchy.children
        ]
        self.counts = np.zeros(n + 1)
        self.reward_sums = np.zeros(n + 1)
        self.ev_prec = np.zeros(n + 1)
        self.ev_wmean = np.zeros(n + 1)
        self.msg_prec = np.zeros(n + 1)
        self.msg_wmean = np.zeros(n + 1)
        self.lamhat = self.lam0 + self.ev_prec
        self.sqrt_lamhat = np.sqrt(self.lamhat)
        self._lamhat, self._sqrt_lamhat = self.lamhat.tolist(), self.sqrt_lamhat.tolist()
        self._fold_root()

    def posterior_precisions(self) -> np.ndarray:
        """Conditional posterior precision of every node, shape (num_nodes + 1,); slot 0 is nan."""
        return self.lamhat.copy()

    def update_path(self, action: int, reward: float) -> None:
        """Record one reward and refresh messages along the leaf's root path."""
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        self.counts[action] += 1.0
        self.reward_sums[action] += reward
        self._ev_prec[action] = self.ev_prec[action] = float(self.counts[action]) * self.noise_prec
        self._ev_wmean[action] = self.ev_wmean[action] = float(self.reward_sums[action]) * self.noise_prec
        self._walk(action)

    def _pool(self, node: int) -> None:
        ch = self._children[node]
        if type(ch) is list:
            msg_prec, msg_wmean = self._msg_prec, self._msg_wmean
            prec = wmean = 0.0
            for c in ch:
                prec += msg_prec[c]
                wmean += msg_wmean[c]
        else:
            prec, wmean = float(self.msg_prec[ch].sum()), float(self.msg_wmean[ch].sum())
        self._ev_prec[node] = self.ev_prec[node] = prec
        self._ev_wmean[node] = self.ev_wmean[node] = wmean

    def _fold(self, node: int) -> None:
        lam0, prec = self._lam0[node], self._ev_prec[node]
        lamhat = lam0 + prec
        self._lamhat[node] = self.lamhat[node] = lamhat
        self._sqrt_lamhat[node] = self.sqrt_lamhat[node] = math.sqrt(lamhat)
        self._msg_prec[node] = self.msg_prec[node] = prec * lam0 / lamhat
        self._msg_wmean[node] = self.msg_wmean[node] = lam0 / lamhat * self._ev_wmean[node]

    def _fold_root(self) -> None:
        lam0 = self._lam0[ROOT]
        lamhat = lam0 + self._ev_prec[ROOT]
        self._lamhat[ROOT] = self.lamhat[ROOT] = lamhat
        self._sqrt_lamhat[ROOT] = self.sqrt_lamhat[ROOT] = math.sqrt(lamhat)
        self.root_mean = (lam0 * self.hyper_mean + self._ev_wmean[ROOT]) / lamhat

    def _copy_tallies(self, out: "PosteriorState") -> None:
        out.counts[:] = self.counts
        out.reward_sums[:] = self.reward_sums
        leaves = self.hierarchy.action_nodes
        out.ev_prec[leaves] = out.counts[leaves] * out.noise_prec
        out.ev_wmean[leaves] = out.reward_sums[leaves] * out.noise_prec
        out._ev_prec, out._ev_wmean = out.ev_prec.tolist(), out.ev_wmean.tolist()

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
        for node in hier.path_to_root(action)[1:]:
            lamhat = self.lamhat[node]
            slope = self.lam0[node] / lamhat
            mean = slope * mean + self.ev_wmean[node] / lamhat
            var = slope * slope * var + 1.0 / lamhat
        return float(mean), float(var)
