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

TSAgent's independent arms under a matrix prior (_arm_priors, _arm_rows, _arm_update) share that one kernel. Only
a matrix prior loads this module: agents imports it on the first one.
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


def _conditional(pair: np.ndarray, what: str, *args, flat: tuple | None = None) -> np.ndarray:
    """Inverse Cholesky factor L^-1 of a Gaussian with precision S = L L^T, given pair = [S, out] of shape (2, d, d).

    Writes the covariance S^-1 = L^-T L^-1 to pair[1] as that one product, so it is exactly symmetric, and L^-T
    samples it. Raises ConditioningError, named by what.format(*args), if S is singular or indefinite (the
    factorization fails) or if cond_1(S) exceeds COND_LIMIT. S is symmetric, so cond_1(S) bounds cond_2(S) from
    above. Since ||A||_1 <= sqrt(d) ||A||_F, cond_1(S) <= d ||S||_F ||S^-1||_F: when one stacked product's two
    squared Frobenius norms keep that under _CERTIFIED, the exact 1-norms are skipped. A NaN, an inf or an
    overflowed square (numpy warns of it) fails that test and leaves the decision to the 1-norms. flat is the
    pair's two reshapes that product multiplies, (2, 1, d*d) and (2, d*d, 1), as _pair_rows binds them; None
    makes them here.
    """
    try:
        li = _inverse_factor(pair[0])
    except (FloatingPointError, np.linalg.LinAlgError):
        raise ConditioningError(f"{what.format(*args)}: precision is singular or not positive definite") from None
    np.matmul(li.T, li, out=pair[1])
    rows, cols = flat or _flat(pair)
    s_sq, cov_sq = (rows @ cols).ravel().tolist()
    if li.size * s_sq * cov_sq <= _CERTIFIED:
        return li
    bound = math.prod(np.maximum.reduce(np.add.reduce(np.abs(pair), axis=1), axis=1).tolist())  # both 1-norms
    if not bound <= COND_LIMIT:
        raise ConditioningError(f"{what.format(*args)}: condition number bound {bound:.3e} exceeds {COND_LIMIT:.0e}")
    return li


def _flat(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two reshapes of a (2, d, d) pair whose product gives both squared Frobenius norms."""
    dd = pair[0].size
    return pair.reshape(2, 1, dd), pair.reshape(2, dd, 1)


def _pair_rows(pairs: np.ndarray) -> list[tuple]:
    """(S, cov, pair, flat) of each (2, d, d) pair of a C-contiguous stack, all views bound once: S = pair[0],
    cov = pair[1] and flat as _conditional takes it (a reshape of a contiguous pair is a view)."""
    return [(pair[0], pair[1], pair, _flat(pair)) for pair in pairs]


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


def _arm_posterior(prec_cov: np.ndarray, wmean: np.ndarray, factor: np.ndarray, mean: np.ndarray, j: int,
                   flat: tuple) -> None:
    """One TS arm's covariance (into prec_cov[1]), its sampling factor and mean, from its precision form; flat is
    prec_cov's reshapes as _pair_rows binds them."""
    li = _conditional(prec_cov, "arm {} covariance", j, flat=flat)
    factor[...] = li.T
    np.matmul(prec_cov[1], wmean, out=mean)


def _arm_priors(marginal: np.ndarray, hyper_mean) -> tuple[np.ndarray, ...]:
    """TSAgent's per-arm prior arrays under a matrix prior, from the arms' (K, d, d) marginal covariances:
    (prec_cov, wmean, factor, mean), with each arm's prec and cov stacked in prec_cov."""
    prec = _sym(np.linalg.inv(marginal))
    wmean = prec @ np.asarray(hyper_mean, float)
    prec_cov = np.stack([prec, np.empty_like(prec)], axis=1)
    factor, mean = np.empty_like(prec), np.empty_like(wmean)
    for j, (_, _, pair, flat) in enumerate(_pair_rows(prec_cov)):
        _arm_posterior(pair, wmean[j], factor[j], mean[j], j, flat)
    return prec_cov, wmean, factor, mean


def _arm_rows(prec_cov: np.ndarray, wmean: np.ndarray, factor: np.ndarray, mean: np.ndarray) -> list[tuple]:
    """Each TS arm's (prec, wmean, pair, flat, factor, mean) views, which _arm_update reads and writes."""
    return [(prec, wmean, pair, flat, factor, mean) for (prec, _, pair, flat), wmean, factor, mean
            in zip(_pair_rows(prec_cov), wmean, factor, mean)]


def _arm_update(arm: tuple, j: int, context, reward: float, noise_prec: float) -> None:
    """One (context, reward) pair added to TS arm j's precision form, then its moments refreshed; arm is its
    _arm_rows entry."""
    prec, wmean, pair, flat, factor, mean = arm
    _add_observation(prec, wmean, context, reward, noise_prec)
    _arm_posterior(pair, wmean, factor, mean, j, flat)


class LinearPosteriorState(_UpwardPass):
    """Linear-model counterpart of PosteriorState.

    Besides the message caches this keeps, per node, the conditional
    posterior in sampled-ancestor form: slope matrix, intercept, covariance and
    post_factor, an upper triangular F with F F^T = covariance, plus the root's posterior mean root_mean. The
    sampling pass (draw) then only needs batched matrix-vector products per tree
    level. update_path refreshes the caches of the acted leaf's root path
    only, and rebuild every node; both run the one refresh loop, _refresh, on local names and without a call per
    node but the kernel's.

    The arrays are the one truth. Each node's rows of them (lam0, ev_prec, ev_wmean, S and the covariance beside
    it, post_factor, slope, intercept, msg_prec, msg_wmean, ev_prec's diagonal and lam0's trace) are bound once as
    views, in _rows; post_cov is a view too. Write into the arrays, never rebind them. A pickled or copied state
    is rebuilt from the tallies, the leaves' ev_prec and ev_wmean (_UpwardPass._from_tallies), and binds its views
    to its own arrays.
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
        start = hierarchy.child_start.tolist()  # each parent's child ids, a slice when consecutive: a pool sums views
        self._children = [_as_index(hierarchy.child_ids[a:b]) if b > a else None for a, b in zip(start, start[1:])]
        n, d = hierarchy.num_nodes, self.dim
        self.ev_prec = np.zeros((n + 1, d, d))
        self.ev_wmean = np.zeros((n + 1, d))
        self.msg_prec = np.zeros((n + 1, d, d))
        self.msg_wmean = np.zeros((n + 1, d))
        # per node, S = P + Lam0 beside the covariance S^-1: the cond_1 bound reads both without a copy
        self._s_cov = np.empty((n + 1, 2, d, d))
        self.post_factor = np.empty((n + 1, d, d))
        self.slope = np.empty((n + 1, d, d))
        self.intercept = np.zeros((n + 1, d))
        self._s_cov[0] = np.eye(d)
        self.post_factor[0] = np.eye(d)
        self.slope[0] = np.eye(d)
        self.post_cov = self._s_cov[:, 1]
        traces = self.lam0.trace(axis1=1, axis2=2).tolist()
        self._rows = [None] + [
            (lam0, prec, wmean, *s_cov, factor, slope, intercept, msg_prec, msg_wmean, prec.diagonal(), trace)
            for lam0, prec, wmean, s_cov, factor, slope, intercept, msg_prec, msg_wmean, trace in zip(
                self.lam0[1:], self.ev_prec[1:], self.ev_wmean[1:], _pair_rows(self._s_cov[1:]),
                self.post_factor[1:], self.slope[1:], self.intercept[1:], self.msg_prec[1:], self.msg_wmean[1:],
                traces[1:])]
        self._refresh(hierarchy.sample_nodes[::-1] + (ROOT,))  # as rebuild: the root, which sends no message, last

    def update_path(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        """Record one (context, reward) pair and refresh the leaf's root path; the context is required."""
        self.hierarchy.action_position(action)  # HierarchyError unless a leaf
        _add_observation(self.ev_prec[action], self.ev_wmean[action], context, reward, self.noise_prec)
        self._refresh(self._paths[action])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Node parameter vectors from the exact joint posterior, root downward: shape (num_nodes + 1, d), row 0
        nan. One standard-normal draw of num_nodes * d values, consumed root first, then level by level; each
        level computes slope @ parent + post_factor @ z + intercept with stacked matmuls on its rows."""
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
        """_UpwardPass's refresh as one loop on local names over each node's bound rows. A parent pools its
        children's messages; then one factor of S = P + Lam0 gives the node's conditional and its message, or
        at the root, which sends none, root_mean."""
        rows, children, msg_prec, msg_wmean = self._rows, self._children, self.msg_prec, self.msg_wmean
        add, matmul, subtract, add_reduce = np.add, np.matmul, np.subtract, np.add.reduce
        for node in nodes:
            (lam0, prec, wmean, s, cov, pair, flat, factor, slope, intercept, m_prec, m_wmean,
             diagonal, lam0_trace) = rows[node]
            ch = children[node]
            if ch is not None:
                add_reduce(msg_prec[ch], axis=0, out=prec)
                add_reduce(msg_wmean[ch], axis=0, out=wmean)
            add(prec, lam0, out=s)
            li = _conditional(pair, "posterior at node {}", node, flat=flat)
            factor[...] = li.T
            matmul(cov, lam0, out=slope)
            matmul(cov, wmean, out=intercept)
            if node == ROOT:
                self.root_mean = slope @ self.hyper_mean + intercept
                break
            small = prec if add_reduce(diagonal) <= lam0_trace else lam0
            h = li @ small
            matmul(h.T, h, out=m_prec)
            subtract(small, m_prec, out=m_prec)
            matmul(lam0, intercept, out=m_wmean)

    def _tallies(self) -> tuple[np.ndarray, np.ndarray]:
        leaves = self.hierarchy.action_nodes
        return self.ev_prec[leaves], self.ev_wmean[leaves]

    def _set_tallies(self, tallies: tuple[np.ndarray, np.ndarray]) -> None:
        leaves = self.hierarchy.action_nodes
        self.ev_prec[leaves], self.ev_wmean[leaves] = tallies

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
