"""Exact recursive posterior for the linear-reward Gaussian hierarchy.

Matrix version of the scalar recursion in posterior.py. Messages are pairs
(precision matrix, precision-weighted mean). A leaf's below-evidence is its
scaled Gram matrix G = sum(x x^T) / noise_var and xy_sum = sum(x y) /
noise_var; an internal node's is the sum of its children's messages. Folding
evidence (P, W) through one prior edge Sigma0 (precision Lam0) uses

    msg_prec  = P - P (P + Lam0)^-1 P
    msg_wmean = Lam0 (P + Lam0)^-1 W

which stays well defined when P is singular (few or degenerate contexts),
unlike the textbook form (Sigma0 + P^-1)^-1. The same solve with S = P + Lam0
gives the node's conditional posterior: covariance S^-1, slope S^-1 Lam0 and
intercept S^-1 W.
"""
from __future__ import annotations

import numpy as np

from .hierarchy import ROOT, Hierarchy, HierarchyError, PriorSpec
from .posterior import _UpwardPass

__all__ = ["ConditioningError", "LinearPosteriorState"]

COND_LIMIT = 1e12


class ConditioningError(ArithmeticError):
    """A linear solve hit a numerically singular system."""


def _solve_checked(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    eig = np.linalg.eigvalsh(a)
    if eig[0] <= 0 or eig[-1] / eig[0] > COND_LIMIT:
        raise ConditioningError(
            f"{what}: condition number exceeds {COND_LIMIT:.0e} (eigenvalues {eig[0]:.3e}..{eig[-1]:.3e})"
        )
    return np.linalg.solve(a, b)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


class LinearPosteriorState(_UpwardPass):
    """Linear-model counterpart of PosteriorState.

    Besides the message caches this keeps, per node, the conditional
    posterior in sampled-ancestor form: slope matrix, intercept, covariance
    and its Cholesky factor, plus the root's posterior mean root_mean. The
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
        sigma0 = prior.covariance_stack(hierarchy)
        self.lam0 = np.empty_like(sigma0)
        for node in range(sigma0.shape[0]):
            self.lam0[node] = _sym(np.linalg.inv(sigma0[node]))
        n, d = hierarchy.num_nodes, self.dim
        self.counts = np.zeros(n + 1)
        self.gram = np.zeros((n + 1, d, d))
        self.xy_sum = np.zeros((n + 1, d))
        self.ev_prec = np.zeros((n + 1, d, d))
        self.ev_wmean = np.zeros((n + 1, d))
        self.msg_prec = np.zeros((n + 1, d, d))
        self.msg_wmean = np.zeros((n + 1, d))
        self.post_cov = np.empty((n + 1, d, d))
        self.post_chol = np.empty((n + 1, d, d))
        self.slope = np.empty((n + 1, d, d))
        self.intercept = np.zeros((n + 1, d))
        self.post_cov[0] = np.eye(d)
        self.post_chol[0] = np.eye(d)
        self.slope[0] = np.eye(d)
        for node in range(1, n + 1):
            self._fold(node)

    def update_path(self, action: int, context: np.ndarray, reward: float) -> None:
        """Record one (context, reward) pair and refresh the leaf's root path."""
        if not self.hierarchy.is_leaf(action):
            raise HierarchyError(f"action {action} is not a leaf")
        x = np.asarray(context, float)
        if x.shape != (self.dim,):
            raise ValueError(f"context must have shape ({self.dim},), got {x.shape}")
        if not np.isfinite(reward) or not np.isfinite(x).all():
            raise ValueError("context and reward must be finite")
        self.counts[action] += 1.0
        self.gram[action] += np.outer(x, x) * self.noise_prec
        self.xy_sum[action] += x * (reward * self.noise_prec)
        self.ev_prec[action] = self.gram[action]
        self.ev_wmean[action] = self.xy_sum[action]
        self._walk(action)

    def _fold(self, node: int) -> None:
        """Message and conditional of one node from S^-1 [P | W | I]; the root sends no message."""
        d = self.dim
        lam0, prec, wmean = self.lam0[node], self.ev_prec[node], self.ev_wmean[node]
        rhs = np.concatenate([prec, wmean[:, None], np.eye(d)], axis=1)
        sol = _solve_checked(prec + lam0, rhs, f"posterior at node {node}")
        cov = _sym(sol[:, d + 1:])
        self.post_cov[node] = cov
        self.post_chol[node] = np.linalg.cholesky(cov)
        self.slope[node] = cov @ lam0
        self.intercept[node] = cov @ wmean
        if node == ROOT:
            self.root_mean = self.slope[ROOT] @ self.hyper_mean + self.intercept[ROOT]
        else:
            self.msg_prec[node] = _sym(prec - prec @ sol[:, :d])
            self.msg_wmean[node] = lam0 @ sol[:, d]

    def _fold_root(self) -> None:
        self._fold(ROOT)

    def _copy_tallies(self, out: "LinearPosteriorState") -> None:
        out.counts[:] = self.counts
        out.gram[:] = self.gram
        out.xy_sum[:] = self.xy_sum
        leaves = self.hierarchy.action_nodes
        out.ev_prec[leaves] = out.gram[leaves]
        out.ev_wmean[leaves] = out.xy_sum[leaves]

    def marginal_action_moments(self, action: int) -> tuple[np.ndarray, np.ndarray]:
        """Marginal posterior (mean, covariance) of a leaf's parameter vector."""
        hier = self.hierarchy
        if not hier.is_leaf(action):
            raise HierarchyError(f"action {action} is not a leaf")
        mean = self.root_mean
        cov = self.post_cov[ROOT]
        for node in hier.path_to_root(action)[1:]:
            a = self.slope[node]
            mean = a @ mean + self.intercept[node]
            cov = _sym(a @ cov @ a.T) + self.post_cov[node]
        return mean, cov
