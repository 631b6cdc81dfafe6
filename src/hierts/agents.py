"""Thompson sampling agents: hierarchical, flattened and independent-arm.

All three agents draw the same leaf marginals before any data arrives; they
differ only in how much of the tree's correlation structure they keep.
HierTS samples the full tree top-down (one Gaussian draw per node, so a
round costs a number of scalar draws linear in the node count), FlatTS runs
HierTS on a two-level collapse of the tree, and TS drops all correlations
and tracks each arm independently.

This module holds no linear-model math: a matrix prior's posterior state
and TS arms live in linear.py, which _linear() imports the first time a
matrix prior reaches an agent, so a k-armed run never loads it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .hierarchy import (
    Hierarchy,
    PriorSpec,
    _is_int,
    flatten_hierarchy,
    marginal_prior_variances,
)
from .posterior import LockstepDraw, PosteriorState, _argmax_score, _context, _UpwardPass

__all__ = ["AGENT_KINDS", "hierts_sample", "HierTSAgent", "FlatTSAgent", "TSAgent", "make_agent"]

AGENT_KINDS = ("HierTS", "FlatTS", "TS")


@functools.cache
def _linear():
    """hierts.linear, imported the first time a matrix prior reaches an agent, so a k-armed run never loads the
    linear model; cached, so a linear TS update, which calls into it, runs no import statement."""
    from . import linear

    return linear


def hierts_sample(state, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw node parameters from the exact joint posterior, root downward: state.draw(rng).

    The root is drawn from its posterior given the hyper-prior, then each
    level conditions on the already-sampled parents. state is a scalar or a
    linear posterior state, any posterior._UpwardPass (a TypeError
    otherwise), so checking it loads no linear model; returns an array
    indexed by node id (slot 0 unused), of shape (num_nodes + 1,) or
    (num_nodes + 1, d), with a leading size
    axis when size is given. A size that is not a positive integer, a bool
    among them, raises ValueError before any draw. A sized draw is size
    draws in a row from rng, stacked: it equals that many calls without a
    size, and leaves rng where they would. A scalar state draws on its
    Python floats, node by node; the k-armed agents of a lockstep cell draw
    through posterior.LockstepDraw instead, whose columns give the same bits.
    """
    if not isinstance(state, _UpwardPass):
        raise TypeError(f"unsupported posterior state {type(state).__name__}")
    if size is None:
        return state.draw(rng)
    if not (_is_int(size) and size > 0):
        raise ValueError(f"size must be a positive integer or None, got {size!r}")
    return np.stack([state.draw(rng) for _ in range(size)])


class HierTSAgent:
    """Thompson sampling with the full tree posterior.

    The posterior lives on the tree that _sampled_tree returns, the acting
    tree itself here. Its leaves keep the acting tree's action order, so an
    action maps to its leaf by position (Hierarchy.action_position).
    """

    kind = "HierTS"

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
        self.hierarchy = hierarchy
        self.rng = rng
        tree, tree_prior = self._sampled_tree(hierarchy, prior)
        self.state = (PosteriorState if tree_prior.is_scalar else _linear().LinearPosteriorState)(tree, tree_prior)
        self._leaves = tree.action_nodes.tolist()
        self._actions = hierarchy.action_nodes.tolist()
        self.sample_ops = 0

    @staticmethod
    def _sampled_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
        return hierarchy, prior

    def sample_model(self, size: int | None = None) -> np.ndarray:
        theta = hierts_sample(self.state, self.rng, size)
        self.sample_ops += self.state.hierarchy.num_nodes * (1 if size is None else int(size))
        return theta

    def act(self, context: np.ndarray | None = None) -> int:
        theta = self.sample_model()[self.state.hierarchy.leaf_index]
        return self._actions[_argmax_score(theta, context)]

    def update(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        self.state.update_path(self._leaves[self.hierarchy.action_position(action)], reward, context)

    def marginal_action_moments(self, action: int):
        return self.state.marginal_action_moments(self._leaves[self.hierarchy.action_position(action)])

    @staticmethod
    def lockstep(agents: list) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """The draws of M k-armed agents of one kind, tree and prior, made together: (width, draw).

        draw takes a round's normals node-major, shape (width, M), column j the width normals that agent j's
        act would draw from its rng, and returns (K, M) values in action order, whose first maximum in column j
        is the action agent j's act would pick from those normals. From here on each agent's update writes
        through to its column. Draws made this way are not counted in sample_ops.
        """
        cell = LockstepDraw([agent.state for agent in agents])
        tree = cell.states[0].hierarchy
        return tree.num_nodes, lambda z: cell.draw(z)[tree.leaf_index]


class FlatTSAgent(HierTSAgent):
    """HierTS on the two-level collapse of the tree (flatten_hierarchy).

    Keeps each action's marginal prior and the shared root effect but
    forgets all intermediate structure.
    """

    kind = "FlatTS"

    @staticmethod
    def _sampled_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
        return _flat_tree(hierarchy, prior)


class TSAgent:
    """Independent conjugate Gaussian posterior per arm.

    Each arm's prior is its marginal under the tree prior, so all structure
    is discarded but the round-one behavior matches the other agents. Each
    arm keeps its precision form (prec, wmean) and the moments a draw reads,
    which update refreshes for the acted arm: mean, and sd = sqrt(prec) for a
    scalar prior or cov and a sampling factor (factor @ factor.T = cov) for a
    matrix prior. A matrix prior keeps each arm's prec beside its cov in one
    (K, 2, d, d) array, the pair the conditional kernel reads and writes. A
    scalar prior's update reads and writes its four (K,) arrays through
    memoryviews, and a matrix prior's through each arm's rows
    (linear._arm_rows, which linear._arm_update reads and writes), all bound
    where the arrays are made or re-homed (_bind_arms); a pickled or copied agent
    leaves them out (a matrix prior's prec and cov views too) and binds them
    again to its own arrays when loaded.
    """

    kind = "TS"

    def __init__(self, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
        self.hierarchy = hierarchy
        self.rng = rng
        self.noise_prec = 1.0 / prior.noise_std**2
        self._scalar = prior.is_scalar
        self._actions = hierarchy.action_nodes.tolist()
        arrays = [a.copy() for a in _ts_prior(hierarchy, prior)]
        if self._scalar:
            self.prec, self.wmean, self.mean, self.sd = arrays
        else:
            self.dim = prior.dim
            self._prec_cov, self.wmean, self.factor, self.mean = arrays
        self._bind_arms()

    def marginal_action_moments(self, action: int):
        """Posterior (mean, variance or covariance) of one arm."""
        j = self.hierarchy.action_position(action)
        if self._scalar:
            return float(self.mean[j]), float(1.0 / self.prec[j])
        return self.mean[j].copy(), self.cov[j].copy()

    def _bind_arms(self) -> None:
        """_arms: a scalar prior's four memoryviews, or a matrix prior's (prec, wmean, pair, flat, factor, mean)
        views of each arm (linear._arm_rows); the matrix prior's prec and cov are views of _prec_cov."""
        if self._scalar:
            self._arms = tuple(map(memoryview, (self.prec, self.wmean, self.mean, self.sd)))
            return
        self.prec, self.cov = self._prec_cov[:, 0], self._prec_cov[:, 1]
        self._arms = _linear()._arm_rows(self._prec_cov, self.wmean, self.factor, self.mean)

    def __getstate__(self) -> dict:
        """The agent without its bound views: memoryviews do not pickle and array views would load as detached
        copies. __setstate__ binds them again."""
        views = ("_arms",) if self._scalar else ("_arms", "prec", "cov")
        return {k: v for k, v in self.__dict__.items() if k not in views}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_arms()

    def act(self, context: np.ndarray | None = None) -> int:
        k = len(self._actions)
        if self._scalar:
            draws = self.rng.standard_normal(k)
            draws /= self.sd
            draws += self.mean
        else:
            draws = self.mean + (self.factor @ self.rng.standard_normal((k, self.dim, 1)))[..., 0]
        return self._actions[_argmax_score(draws, context)]

    @staticmethod
    def lockstep(agents: list) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """As HierTSAgent.lockstep: each agent's mean and sd become column j of (K, M) arrays."""
        if not all(agent._scalar for agent in agents):
            raise ValueError("a lockstep draw takes k-armed agents")
        mean, sd = (np.array([getattr(agent, name) for agent in agents]).T.copy() for name in ("mean", "sd"))
        for j, agent in enumerate(agents):
            agent.mean, agent.sd = mean[:, j], sd[:, j]
            agent._bind_arms()

        def draw(z: np.ndarray) -> np.ndarray:
            z /= sd
            z += mean
            return z

        return mean.shape[0], draw

    def update(self, action: int, reward: float, context: np.ndarray | None = None) -> None:
        j = self.hierarchy.action_position(action)
        if self._scalar:
            _context(context, None)
            if not math.isfinite(reward):
                raise ValueError(f"reward must be finite, got {reward}")
            prec_arms, wmean_arms, mean_arms, sd_arms = self._arms
            prec = prec_arms[j] = prec_arms[j] + self.noise_prec
            wmean = wmean_arms[j] = wmean_arms[j] + float(reward) * self.noise_prec  # float32 would stay float32
            mean_arms[j], sd_arms[j] = wmean / prec, math.sqrt(prec)
        else:
            _linear()._arm_update(self._arms[j], j, context, reward, self.noise_prec)


# Each agent of a cell's instances starts from the same tree and prior, so
# FlatTS's flat tree and TS's per-arm prior are built once per cell. Hierarchy
# and PriorSpec hash by identity, so a cached entry never serves another cell.
@functools.lru_cache(maxsize=1)
def _flat_tree(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[Hierarchy, PriorSpec]:
    """(flat tree, flat prior); the flat leaves keep the tree's action order."""
    flat, flat_prior, _ = flatten_hierarchy(hierarchy, prior)
    return flat, flat_prior


@functools.lru_cache(maxsize=1)
def _ts_prior(hierarchy: Hierarchy, prior: PriorSpec) -> tuple[np.ndarray, ...]:
    """Read-only per-arm prior arrays of TSAgent, each arm's prior being its tree marginal.

    (prec, wmean, mean, sd) for a scalar prior; (prec_cov, wmean, factor,
    mean) for a matrix prior, with each arm's prec and cov stacked in prec_cov.
    """
    leaves = hierarchy.action_nodes
    marginal = marginal_prior_variances(hierarchy, prior)
    if prior.is_scalar:
        prec = 1.0 / marginal[leaves]
        wmean = prec * float(prior.hyper_mean)
        arrays = (prec, wmean, wmean / prec, np.sqrt(prec))
    else:
        arrays = _linear()._arm_priors(marginal[leaves], prior.hyper_mean)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def make_agent(kind: str, hierarchy: Hierarchy, prior: PriorSpec, rng: np.random.Generator):
    if kind == "HierTS":
        return HierTSAgent(hierarchy, prior, rng)
    if kind == "FlatTS":
        return FlatTSAgent(hierarchy, prior, rng)
    if kind == "TS":
        return TSAgent(hierarchy, prior, rng)
    raise ValueError(f"unknown agent kind {kind!r}; expected one of {AGENT_KINDS}")
