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
from .posterior import _UpwardPass

__all__ = ["ConditioningError", "LinearPosteriorState"]

COND_LIMIT = 1e12


class ConditioningError(ArithmeticError):
    """A Gaussian conditional's precision is singular, indefinite or too ill-conditioned."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _conditional(s: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(covariance S^-1, inverse Cholesky factor L^-1) of a Gaussian with precision S = L L^T.

    S^-1 = L^-T L^-1 is formed as that one product, so it is exactly symmetric, and L^-T samples it. Raises
    ConditioningError naming what if S is singular or indefinite (the factorization fails) or if cond_1(S)
    exceeds COND_LIMIT. S is symmetric, so cond_1(S) bounds cond_2(S) from above.
    """
    try:
        li = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{what}: precision is singular or not positive definite") from None
    pair = np.empty((2,) + s.shape)  # S and S^-1 side by side: both 1-norms in one pass
    pair[0] = s
    cov = np.matmul(li.T, li, out=pair[1])
    bound = math.prod(np.abs(pair).sum(axis=1).max(axis=1).tolist())
    if not bound <= COND_LIMIT:
        raise ConditioningError(f"{what}: condition number bound {bound:.3e} exceeds {COND_LIMIT:.0e}")
    return cov, li


def _observation(context, reward: float, dim: int) -> np.ndarray:
    """The context as a float vector; ValueError unless it has shape (dim,) and it and the reward are finite."""
    x = np.asarray(context, float)
    if x.shape != (dim,):
        raise ValueError(f"context must have shape ({dim},), got {x.shape}")
    if not np.isfinite(reward) or not np.isfinite(x).all():
        raise ValueError("context and reward must be finite")
    return x


def _argmax_score(values: np.ndarray, context) -> int:
    """Position of the largest value (of values @ context, given a context); ValueError unless
    that score is finite, since np.argmax picks the first NaN that a NaN or inf in the context makes."""
    if context is None:
        return int(values.argmax())
    scores = values @ np.asarray(context, float)
    j = int(np.argmax(scores))
    if not math.isfinite(scores[j]):
        raise ValueError(f"context must be finite, got {context}")
    return j


class LinearPosteriorState(_UpwardPass):
    """Linear-model counterpart of PosteriorState.

    Besides the message caches this keeps, per node, the conditional
    posterior in sampled-ancestor form: slope matrix, intercept, covariance and
    post_factor, an upper triangular F with F F^T = covariance, plus the root's posterior mean root_mean. The
    sampling pass then only needs batched matrix-vector products per tree
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
        self._lam0_trace = self.lam0.trace(axis1=1, axis2=2).tolist()
        self._children = [_as_index(ch) if ch.size else ch for ch in hierarchy.children]  # slices pool over views
        n, d = hierarchy.num_nodes, self.dim
        self.ev_prec = np.zeros((n + 1, d, d))
        self.ev_wmean = np.zeros((n + 1, d))
        self.msg_prec = np.zeros((n + 1, d, d))
        self.msg_wmean = np.zeros((n + 1, d))
        self.post_cov = np.empty((n + 1, d, d))
        self.post_factor = np.empty((n + 1, d, d))
        self.slope = np.empty((n + 1, d, d))
        self.intercept = np.zeros((n + 1, d))
        self.post_cov[0] = np.eye(d)
        self.post_factor[0] = np.eye(d)
        self.slope[0] = np.eye(d)
        for node in range(1, n + 1):
            self._fold(node)

    def update_path(self, action: int, context: np.ndarray, reward: float) -> None:
        """Record one (context, reward) pair and refresh the leaf's root path."""
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        x = _observation(context, reward, self.dim)
        self.ev_prec[action] += np.outer(x, x) * self.noise_prec
        self.ev_wmean[action] += x * (reward * self.noise_prec)
        self._walk(action)

    def _fold(self, node: int) -> None:
        """Message and conditional of one node from one factor of S = P + Lam0; the root sends no message."""
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        cov, li = _conditional(prec + lam0, f"posterior at node {node}")
        self.post_cov[node] = cov
        self.post_factor[node] = li.T
        slope = self.slope[node] = cov @ lam0
        intercept = self.intercept[node] = cov @ wmean
        if node == ROOT:
            self.root_mean = slope @ self.hyper_mean + intercept
            return
        small = prec if prec.diagonal().sum() <= self._lam0_trace[node] else lam0
        h = li @ small
        self.msg_prec[node] = small - h.T @ h
        self.msg_wmean[node] = lam0 @ intercept

    def _fold_root(self) -> None:
        self._fold(ROOT)

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
