"""Exact recursive posterior for the linear-reward Gaussian hierarchy.

Matrix version of the scalar recursion in posterior.py. Messages are pairs
(precision matrix, precision-weighted mean). A leaf's below-evidence is its
scaled Gram matrix sum(x x^T) / noise_var and sum(x y) / noise_var, which
update_path accumulates in place; an internal node's is the sum of its
children's messages. Folding evidence (P, W) through one prior edge Sigma0
(precision Lam0) uses, with S = P + Lam0,

    msg_prec  = P - P S^-1 P = Lam0 - Lam0 S^-1 Lam0
    msg_wmean = Lam0 S^-1 W

which stays well defined when P is singular (few or degenerate contexts),
unlike the textbook form (Sigma0 + P^-1)^-1. The first form cancels when P >> Lam0 and the second
when P << Lam0, so a node subtracts from the one of smaller trace. One Cholesky factor S = L L^T gives
the rest: covariance S^-1 = L^-T L^-1, slope S^-1 Lam0, intercept S^-1 W, P S^-1 P = H^T H with H = L^-1 P.
"""
from __future__ import annotations

import math

import numpy as np

from .hierarchy import ROOT, Hierarchy, HierarchyError, PriorSpec, _as_index
from .posterior import _context, _root_paths, _UpwardPass

__all__ = ["ConditioningError", "LinearPosteriorState"]

COND_LIMIT = 1e12
# d^2 ||S||_F^2 ||S^-1||_F^2 at most this leaves cond_1(S) below COND_LIMIT; the margin covers the rounding of both
_CERTIFIED = COND_LIMIT**2 * (1 - 1e-6)


class ConditioningError(ArithmeticError):
    """A Gaussian conditional's precision is singular, indefinite or too ill-conditioned."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _bind_inverse_factor():
    """L^-1 for S = L L^T from numpy's LAPACK gufuncs, called directly: at d = 10 numpy.linalg's wrappers around
    them cost about as much as LAPACK. A gufunc flags a failed factorization or inversion as an invalid
    operation, which the errstate numpy.linalg sets around them raises as FloatingPointError, so the same inputs
    fail. Without that private module, the public wrappers: the same bits, and LinAlgError where these raise."""
    try:
        from numpy.linalg._umath_linalg import cholesky_lo, inv
    except ImportError:
        def inverse_factor(s):
            return np.linalg.inv(np.linalg.cholesky(s))
    else:
        @np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
        def inverse_factor(s):
            return inv(cholesky_lo(s, signature="d->d"), signature="d->d")
    return inverse_factor


_inverse_factor = _bind_inverse_factor()


def _conditional(pair: np.ndarray, what: str, *args) -> np.ndarray:
    """Inverse Cholesky factor L^-1 of a Gaussian with precision S = L L^T, given pair = [S, out] of shape (2, d, d).

    Writes the covariance S^-1 = L^-T L^-1 to pair[1] as that one product, so it is exactly symmetric, and L^-T
    samples it. Raises ConditioningError, named by what.format(*args), if S is singular or indefinite (the
    factorization fails) or if cond_1(S) exceeds COND_LIMIT. S is symmetric, so cond_1(S) bounds cond_2(S) from
    above. Since ||A||_1 <= sqrt(d) ||A||_F, cond_1(S) <= d ||S||_F ||S^-1||_F: when one stacked product's two
    squared Frobenius norms keep that under _CERTIFIED, the exact 1-norms are skipped. A NaN, an inf or an
    overflowed square (numpy warns of it) fails that test and leaves the decision to the 1-norms.
    """
    try:
        li = _inverse_factor(pair[0])
    except (FloatingPointError, np.linalg.LinAlgError):
        raise ConditioningError(f"{what.format(*args)}: precision is singular or not positive definite") from None
    np.matmul(li.T, li, out=pair[1])
    dd = li.size
    s_sq, cov_sq = (pair.reshape(2, 1, dd) @ pair.reshape(2, dd, 1)).ravel().tolist()
    if dd * s_sq * cov_sq <= _CERTIFIED:
        return li
    bound = math.prod(np.maximum.reduce(np.add.reduce(np.abs(pair), axis=1), axis=1).tolist())  # both 1-norms
    if not bound <= COND_LIMIT:
        raise ConditioningError(f"{what.format(*args)}: condition number bound {bound:.3e} exceeds {COND_LIMIT:.0e}")
    return li


def _add_observation(prec: np.ndarray, wmean: np.ndarray, context, reward: float, noise_prec: float) -> None:
    """Add one pair's x x^T / noise_var to prec and x y / noise_var to wmean, in place; ValueError, before any
    change, unless the context has shape (d,) and it and the reward are finite."""
    x = _context(context, wmean.shape[0])
    if not math.isfinite(reward) or not np.isfinite(x).all():
        raise ValueError("context and reward must be finite")
    outer = np.multiply.outer(x, x)
    outer *= noise_prec
    prec += outer
    wmean += x * (float(reward) * noise_prec)  # a numpy float32 reward would round the product to float32


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


class LinearPosteriorState(_UpwardPass):
    """Linear-model counterpart of PosteriorState.

    Besides the message caches this keeps, per node, the conditional
    posterior in sampled-ancestor form: slope matrix, intercept, covariance and
    post_factor, an upper triangular F with F F^T = covariance, plus the root's posterior mean root_mean. The
    sampling pass (draw) then only needs batched matrix-vector products per tree
    level. update_path refreshes the caches of the acted leaf's root path
    only.
    """

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec):
        if prior.is_scalar:
            raise HierarchyError("LinearPosteriorState requires a matrix prior; see PosteriorState")
        self.hierarchy = hierarchy
        self.prior = prior
        self.dim = prior.dim
        self.noise_prec = 1.0 / prior.noise_std**2
        self.hyper_mean = np.asarray(prior.hyper_mean, float)
        self.lam0 = _sym(np.linalg.inv(prior.variances(hierarchy)))
        self._paths = _root_paths(hierarchy)
        self._lam0_trace = self.lam0.trace(axis1=1, axis2=2).tolist()
        start = hierarchy.child_start.tolist()  # each parent's child ids, a slice when consecutive: _pool sums views
        self._children = [_as_index(hierarchy.child_ids[a:b]) if b > a else None for a, b in zip(start, start[1:])]
        n, d = hierarchy.num_nodes, self.dim
        self.ev_prec = np.zeros((n + 1, d, d))
        self.ev_wmean = np.zeros((n + 1, d))
        self.msg_prec = np.zeros((n + 1, d, d))
        self.msg_wmean = np.zeros((n + 1, d))
        # per node, S = P + Lam0 beside the covariance S^-1: the cond_1 bound reads both without a copy
        self._s_cov = np.empty((n + 1, 2, d, d))
        self.post_cov = self._s_cov[:, 1]
        self.post_factor = np.empty((n + 1, d, d))
        self.slope = np.empty((n + 1, d, d))
        self.intercept = np.zeros((n + 1, d))
        self._s_cov[0] = np.eye(d)
        self.post_factor[0] = np.eye(d)
        self.slope[0] = np.eye(d)
        for node in range(1, n + 1):
            self._fold(node)

    def update_path(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        """Record one (context, reward) pair and refresh the leaf's root path; the context is required."""
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        _add_observation(self.ev_prec[action], self.ev_wmean[action], context, reward, self.noise_prec)
        self._refresh(self._paths[action])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Node parameter vectors from the exact joint posterior, root downward: shape (num_nodes + 1, d), row 0
        nan. One standard-normal draw of num_nodes * d values, consumed root first, then level by level; each
        level computes slope @ parent + post_factor @ z + intercept with stacked matmuls."""
        hier, d = self.hierarchy, self.dim
        slope, intercept, factor = self.slope, self.intercept, self.post_factor
        z = rng.standard_normal(hier.num_nodes * d)
        theta = np.empty((hier.num_nodes + 1, d, 1))
        theta[0] = np.nan
        theta[ROOT] = self.root_mean[:, None] + factor[ROOT] @ z[:d].reshape(d, 1)
        for nodes, parents, start, stop in hier.level_index:
            mean = slope[nodes] @ theta.take(parents, axis=0)
            mean += factor[nodes] @ z[d * start : d * stop].reshape(-1, d, 1)
            mean += intercept[nodes, :, None]
            theta[nodes] = mean
        return theta[..., 0]

    def _refresh(self, nodes) -> None:
        for node in nodes:
            if self._children[node] is not None:
                self._pool(node)
            self._fold(node)

    def _pool(self, node: int) -> None:
        ch = self._children[node]
        np.add.reduce(self.msg_prec[ch], axis=0, out=self.ev_prec[node])
        np.add.reduce(self.msg_wmean[ch], axis=0, out=self.ev_wmean[node])

    def _fold(self, node: int) -> None:
        """Message and conditional of one node from one factor of S = P + Lam0; the root sends no message."""
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        s_cov = self._s_cov[node]
        np.add(prec, lam0, out=s_cov[0])
        li = _conditional(s_cov, "posterior at node {}", node)
        cov = s_cov[1]
        self.post_factor[node] = li.T
        slope = np.matmul(cov, lam0, out=self.slope[node])
        intercept = np.matmul(cov, wmean, out=self.intercept[node])
        if node == ROOT:
            self.root_mean = slope @ self.hyper_mean + intercept
            return
        small = prec if prec.trace() <= self._lam0_trace[node] else lam0
        h = li @ small
        msg_prec = np.matmul(h.T, h, out=self.msg_prec[node])
        np.subtract(small, msg_prec, out=msg_prec)
        np.matmul(lam0, intercept, out=self.msg_wmean[node])

    def _copy_tallies(self, out: "LinearPosteriorState") -> None:
        leaves = self.hierarchy.action_nodes
        out.ev_prec[leaves] = self.ev_prec[leaves]
        out.ev_wmean[leaves] = self.ev_wmean[leaves]

    def marginal_action_moments(self, action: int) -> tuple[np.ndarray, np.ndarray]:
        """Marginal posterior (mean, covariance) of a leaf's parameter vector."""
        hier = self.hierarchy
        hier.action_position(action)  # HierarchyError unless a leaf
        mean = self.root_mean
        cov = self.post_cov[ROOT]
        for node in hier.path_to_root(action)[1:]:
            a = self.slope[node]
            mean = a @ mean + self.intercept[node]
            cov = _sym(a @ cov @ a.T) + self.post_cov[node]
        return mean, cov
