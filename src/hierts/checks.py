"""Randomized verification suites: recursion vs dense oracle, and the
posterior inequalities exercised on instrumented runs.

Each case derives its own seed from (base seed, case index), so a failure
report names everything needed to replay it. The oracle suites compare the
marginals that a posterior state composes from its cached conditionals, the
values hierts_sample draws from, so a fault in any of them shows up as a
deviation from the dense oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import HierTSAgent
from .config import DEFAULT_SUITE_SIZES
from .envs import sample_instance, step
from .hierarchy import Hierarchy, PriorSpec, build_hierarchy
from .linear import LinearPosteriorState
from .oracle import action_marginals, condition, joint_prior
from .posterior import PosteriorState

__all__ = [
    "CheckResult",
    "SuiteReport",
    "random_tree",
    "random_scalar_prior",
    "random_linear_prior",
    "scalar_oracle_suite",
    "linear_oracle_suite",
    "lemma_suite",
    "run_default_suites",
    "DEFAULT_SUITE_SIZES",
]

ORACLE_RTOL = 1e-8
DECOMPOSITION_ATOL = 1e-9
# Slack for float roundoff when asserting mathematically non-strict inequalities.
INEQ_SLACK = 1e-9
# Size budgets of each suite's random problems: (tree levels, tree nodes[, observations per
# case]); the linear suite draws each case's dimension from 1..LINEAR_MAX_DIM.
SCALAR_BUDGET = (4, 32, 50)
LINEAR_BUDGET = (3, 16, 40)
LINEAR_MAX_DIM = 4
LEMMA_TREE_BUDGET = (4, 24)


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    max_abs_dev: float
    max_rel_dev: float
    tolerance: float
    violations: int
    failing_cases: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def describe(self) -> str:
        status = "ok" if self.passed else f"FAIL ({self.violations} violations)"
        return (
            f"{self.name:28s} cases={self.cases:<5d} max_abs={self.max_abs_dev:9.3e} "
            f"max_rel={self.max_rel_dev:9.3e} tol={self.tolerance:.1e}  {status}"
        )


@dataclass(frozen=True)
class SuiteReport:
    base_seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def describe(self) -> str:
        lines = [r.describe() for r in self.results]
        for r in self.results:
            if r.failing_cases:
                lines.append(
                    f"  replay {r.name}: base_seed={self.base_seed} case indices {list(r.failing_cases)}"
                )
        lines.append("suite result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _case_rng(base_seed: int, case: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(salt, case)))


def random_tree(rng: np.random.Generator, max_levels: int = 4, max_nodes: int = 32) -> Hierarchy:
    """Random rooted tree within the given level and node budgets.

    Leaves may sit at different depths. Internal nodes get 2 or 3 children,
    more at the root occasionally, and ids follow breadth-first creation
    order so the parent map is valid by construction.
    """
    parents: dict[int, int] = {}
    next_id = 2
    frontier = [(1, 0)]
    while frontier:
        node, depth = frontier.pop(0)
        budget = max_nodes - (next_id - 1)
        if depth >= max_levels - 1 or budget < 2:
            continue
        if node == 1:
            want = int(rng.integers(2, min(4, budget) + 1))
        elif rng.random() < 0.55:
            want = int(rng.integers(2, min(3, budget) + 1))
        else:
            continue
        for _ in range(want):
            parents[next_id] = node
            frontier.append((next_id, depth + 1))
            next_id += 1
    return build_hierarchy(parents)


def random_scalar_prior(
    rng: np.random.Generator, hierarchy: Hierarchy, spread: tuple[float, float] = (0.1, 4.0)
) -> PriorSpec:
    variances = {
        node: float(rng.uniform(*spread)) for node in range(1, hierarchy.num_nodes + 1)
    }
    return PriorSpec(
        hyper_mean=float(rng.uniform(-1.0, 1.0)),
        node_variance=variances,
        noise_std=float(rng.uniform(0.5, 1.5)),
    )


def random_linear_prior(rng: np.random.Generator, hierarchy: Hierarchy, dim: int) -> PriorSpec:
    def spd() -> np.ndarray:
        a = rng.standard_normal((dim, dim))
        return a @ a.T / dim + np.diag(rng.uniform(0.2, 1.0, size=dim))

    variances = {node: spd() for node in range(1, hierarchy.num_nodes + 1)}
    return PriorSpec(
        hyper_mean=rng.uniform(-1.0, 1.0, size=dim),
        node_variance=variances,
        noise_std=float(rng.uniform(0.5, 1.5)),
    )


def _result(name, devs, tol, failing, cases) -> CheckResult:
    return CheckResult(
        name=name,
        cases=cases,
        max_abs_dev=float(max((d[0] for d in devs), default=0.0)),
        max_rel_dev=float(max((d[1] for d in devs), default=0.0)),
        tolerance=tol,
        violations=len(failing),
        failing_cases=tuple(sorted(set(failing))),
    )


def _deviation(got, want) -> tuple[float, float]:
    """Largest absolute deviation, and that over max(largest |want|, 1) so near-zero values stay comparable."""
    dev = float(np.abs(np.subtract(got, want)).max())
    return dev, dev / max(float(np.abs(want).max()), 1.0)


def _oracle_suite(names, cases, base_seed, salt, draw_prior, max_levels, max_nodes, max_obs):
    """Recursive leaf moments vs dense-oracle moments, one random problem per case.

    draw_prior(rng, tree) picks the model: a scalar prior gets a PosteriorState
    and rewards alone, a matrix prior a LinearPosteriorState and a standard
    normal context drawn before each reward. Returns (mean check, variance or
    covariance check) under the two names.
    """
    devs, fails = ([], []), ([], [])
    for case in range(cases):
        rng = _case_rng(base_seed, case, salt)
        hierarchy = random_tree(rng, max_levels, max_nodes)
        prior = draw_prior(rng, hierarchy)
        scalar = prior.is_scalar
        state = (PosteriorState if scalar else LinearPosteriorState)(hierarchy, prior)
        observations = []
        for _ in range(int(rng.integers(0, max_obs + 1))):
            leaf = int(rng.choice(hierarchy.action_nodes))
            context = () if scalar else (rng.standard_normal(prior.dim),)
            reward = float(rng.normal(0.0, 2.0))
            state.update_path(leaf, reward, *context)
            observations.append((leaf, *context, reward))  # oracle.condition's (leaf, reward) or (leaf, x, reward)
        joint = condition(joint_prior(hierarchy, prior), observations, prior.noise_std**2)
        marginals = action_marginals(joint)
        for leaf in hierarchy.action_nodes:
            moments = zip(state.marginal_action_moments(int(leaf)), marginals[int(leaf)])
            for (got, want), dev, fail in zip(moments, devs, fails):
                dev.append(_deviation(got, want))
                if dev[-1][1] > ORACLE_RTOL:
                    fail.append(case)
    return tuple(_result(name, dev, ORACLE_RTOL, fail, cases) for name, dev, fail in zip(names, devs, fails))


def scalar_oracle_suite(cases: int = 100, base_seed: int = 0) -> tuple[CheckResult, CheckResult]:
    """Recursive leaf marginals vs dense-oracle marginals on random problems.

    Returns (mean check, variance check). Relative deviation uses a floor of
    one in the denominator so that near-zero means stay comparable.
    """
    names = ("mab-marginal-mean", "mab-marginal-variance")
    return _oracle_suite(names, cases, base_seed, 0, random_scalar_prior, *SCALAR_BUDGET)


def linear_oracle_suite(cases: int = 30, base_seed: int = 0) -> tuple[CheckResult, CheckResult]:
    """Linear-model analog of scalar_oracle_suite (means and covariances)."""

    def draw_prior(rng, hierarchy):
        return random_linear_prior(rng, hierarchy, int(rng.integers(1, LINEAR_MAX_DIM + 1)))

    names = ("linear-marginal-mean", "linear-marginal-covariance")
    return _oracle_suite(names, cases, base_seed, 1, draw_prior, *LINEAR_BUDGET)


def lemma_suite(
    runs: int = 20, horizon: int = 100, base_seed: int = 0
) -> tuple[CheckResult, CheckResult, CheckResult]:
    """Instrumented agent runs checking three posterior laws each round.

    1. The per-path variance decomposition equals the dense oracle's
       conditioned marginal variance of the played action.
    2. The played path's precision gains dominate the discounted
       noise-precision lower bound.
    3. No node's posterior precision grows by more than the factor
       c = 1 + max_prior_variance / noise_var in one round (and by more
       than 2 when the noise level dominates every prior variance; runs
       with even index force that regime so both constants get exercised).
    """
    dec_devs, gain_devs, scale_devs = [], [], []
    dec_fail, gain_fail, scale_fail = [], [], []
    for run in range(runs):
        rng = _case_rng(base_seed, run, salt=2)
        hierarchy = random_tree(rng, *LEMMA_TREE_BUDGET)
        prior = random_scalar_prior(rng, hierarchy)
        if run % 2 == 0:
            # Force noise >= every prior sd so the universal constant applies.
            sigma_max = math.sqrt(max(prior.node_variance.values()))
            prior = PriorSpec(
                hyper_mean=prior.hyper_mean,
                node_variance=prior.node_variance,
                noise_std=float(sigma_max * rng.uniform(1.0, 1.5)),
            )
        noise_sq = prior.noise_std**2
        sigma0_max_sq = max(prior.node_variance.values())
        c = 1.0 + sigma0_max_sq / noise_sq
        agent = HierTSAgent(hierarchy, prior, _case_rng(base_seed, run, salt=3))
        instance = sample_instance(hierarchy, prior, _case_rng(base_seed, run, salt=4))
        noise_rng = _case_rng(base_seed, run, salt=5)
        joint = joint_prior(hierarchy, prior)
        state = agent.state
        lam0 = np.array(state.lam0)
        for _ in range(horizon):
            lamhat_pre = state.posterior_precisions()
            action = agent.act()
            _, dec_var = state.marginal_action_moments(action)
            oracle_var = action_marginals(joint)[action][1]
            dev = abs(dec_var - oracle_var)
            dec_devs.append((dev, dev / max(oracle_var, 1.0)))
            if dev > DECOMPOSITION_ATOL:
                dec_fail.append(run)
            reward = step(instance, action, noise_rng)
            agent.update(action, reward)
            joint = condition(joint, [(action, reward)], noise_sq)
            lamhat_post = state.posterior_precisions()
            path = hierarchy.path_to_root(action)
            slopes_sq = (lam0[path] / lamhat_pre[path]) ** 2
            length = path.size
            for i in range(length):
                lhs = lamhat_post[path[i]] - lamhat_pre[path[i]]
                rhs = c ** (i + 1 - length) * float(np.prod(slopes_sq[i + 1 :])) / noise_sq
                margin = lhs - rhs
                gain_devs.append((max(-margin, 0.0), max(-margin, 0.0) / max(rhs, 1.0)))
                if margin < -INEQ_SLACK:
                    gain_fail.append(run)
            ratios = lamhat_post[1:] / lamhat_pre[1:]
            worst = float(ratios.max())
            over = max(worst - c, 0.0)
            scale_devs.append((over, over / c))
            if worst > c + INEQ_SLACK:
                scale_fail.append(run)
            if prior.noise_std**2 >= sigma0_max_sq and worst > 2.0 + INEQ_SLACK:
                scale_fail.append(run)
                scale_devs.append((worst - 2.0, (worst - 2.0) / 2.0))
    return (
        _result("variance-decomposition", dec_devs, DECOMPOSITION_ATOL, dec_fail, runs),
        _result("precision-gain-bound", gain_devs, INEQ_SLACK, gain_fail, runs),
        _result("precision-scaling-bound", scale_devs, INEQ_SLACK, scale_fail, runs),
    )


def run_default_suites(
    base_seed: int = 0,
    scalar_cases: int = DEFAULT_SUITE_SIZES["scalar_cases"],
    linear_cases: int = DEFAULT_SUITE_SIZES["linear_cases"],
    lemma_runs: int = DEFAULT_SUITE_SIZES["lemma_runs"],
    horizon: int = DEFAULT_SUITE_SIZES["horizon"],
) -> SuiteReport:
    """The full verification battery behind the verify-oracle command."""
    results: list[CheckResult] = []
    if scalar_cases > 0:
        results.extend(scalar_oracle_suite(scalar_cases, base_seed))
    if linear_cases > 0:
        results.extend(linear_oracle_suite(linear_cases, base_seed))
    if lemma_runs > 0:
        results.extend(lemma_suite(lemma_runs, horizon, base_seed))
    return SuiteReport(base_seed=base_seed, results=tuple(results))
