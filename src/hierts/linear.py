"""Exact recursive posterior for the linear-reward Gaussian hierarchy.

Matrix version of the scalar recursion in posterior.py. Messages are pairs
(precision matrix, precision-weighted mean). A leaf's below-evidence is its
scaled Gram matrix G = sum(x x^T) / noise_var and xy_sum = sum(x y) /
noise_var; an internal node's is the sum of its children's messages. Folding
evidence (P, W) through one prior edge Sigma0 (precision Lam0) uses

    msg_prec  = P - P (P + Lam0)^-1 P
    msg_wmean = Lam0 (P + Lam0)^-1 W

which stays well defined when P is singular (few or degenerate contexts),
unlike the textbook form (Sigma0 + P^-1)^-1.
"""
from __future__ import annotations

import numpy as np

from .hierarchy import ROOT, Hierarchy, HierarchyError, PriorSpec

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


def _shrink_linear(
    prec: np.ndarray, wmean: np.ndarray, lam0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Upward message (precision, weighted mean) of below-evidence folded through one edge."""
    d = lam0.shape[0]
    s = prec + lam0
    sol = _solve_checked(s, np.concatenate([prec, wmean[:, None]], axis=1), "message update")
    msg_prec = _sym(prec - prec @ sol[:, :d])
    msg_wmean = lam0 @ sol[:, d]
    return msg_prec, msg_wmean


def _cov_and_chol(prec: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of a precision matrix (by a checked solve) and its Cholesky factor."""
    cov = _sym(_solve_checked(prec, np.eye(prec.shape[0]), what))
    return cov, np.linalg.cholesky(cov)


class LinearPosteriorState:
    """Linear-model counterpart of PosteriorState.

    Besides the message caches this keeps, per node, the conditional
    posterior in sampled-ancestor form: slope matrix, intercept, covariance
    and its Cholesky factor. The sampling pass then only needs batched
    matrix-vector products per tree level. update_path refreshes the caches
    of the acted leaf's root path only.
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
            self._refresh_posterior(node)

    @property
    def num_nodes(self) -> int:
        return self.hierarchy.num_nodes

    def _refresh_posterior(self, node: int) -> None:
        lam0 = self.lam0[node]
        prec = lam0 + self.ev_prec[node]
        cov, chol = _cov_and_chol(prec, f"posterior covariance at node {node}")
        self.post_cov[node] = cov
        self.post_chol[node] = chol
        self.slope[node] = cov @ lam0
        self.intercept[node] = cov @ self.ev_wmean[node]

    def update_path(self, action: int, context: np.ndarray, reward: float) -> None:
        """Record one (context, reward) pair and refresh the leaf's root path."""
        hier = self.hierarchy
        if not hier.is_leaf(action):
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
        node = action
        while node != ROOT:
            self.msg_prec[node], self.msg_wmean[node] = _shrink_linear(
                self.ev_prec[node], self.ev_wmean[node], self.lam0[node]
            )
            self._refresh_posterior(node)
            node = int(hier.parent[node])
            ch = hier.children[node]
            self.ev_prec[node] = self.msg_prec[ch].sum(axis=0)
            self.ev_wmean[node] = self.msg_wmean[ch].sum(axis=0)
        self._refresh_posterior(ROOT)

    def marginal_action_moments(self, action: int) -> tuple[np.ndarray, np.ndarray]:
        """Marginal posterior (mean, covariance) of a leaf's parameter vector."""
        hier = self.hierarchy
        if not hier.is_leaf(action):
            raise HierarchyError(f"action {action} is not a leaf")
        mean = self.slope[ROOT] @ self.hyper_mean + self.intercept[ROOT]
        cov = self.post_cov[ROOT]
        for node in hier.path_to_root(action)[1:]:
            a = self.slope[node]
            mean = a @ mean + self.intercept[node]
            cov = _sym(a @ cov @ a.T) + self.post_cov[node]
        return mean, cov

    def rebuild(self) -> "LinearPosteriorState":
        """Fresh state recomputed bottom-up from the raw Gram statistics."""
        out = LinearPosteriorState(self.hierarchy, self.prior)
        out.counts[:] = self.counts
        out.gram[:] = self.gram
        out.xy_sum[:] = self.xy_sum
        hier = self.hierarchy
        leaves = hier.action_nodes
        out.ev_prec[leaves] = out.gram[leaves]
        out.ev_wmean[leaves] = out.xy_sum[leaves]
        order = sorted(range(2, hier.num_nodes + 1), key=lambda i: int(hier.height[i]))
        for node in order:
            ch = hier.children[node]
            if ch.size:
                out.ev_prec[node] = out.msg_prec[ch].sum(axis=0)
                out.ev_wmean[node] = out.msg_wmean[ch].sum(axis=0)
            out.msg_prec[node], out.msg_wmean[node] = _shrink_linear(
                out.ev_prec[node], out.ev_wmean[node], out.lam0[node]
            )
        ch = hier.children[ROOT]
        out.ev_prec[ROOT] = out.msg_prec[ch].sum(axis=0)
        out.ev_wmean[ROOT] = out.msg_wmean[ch].sum(axis=0)
        for node in range(1, hier.num_nodes + 1):
            out._refresh_posterior(node)
        return out
