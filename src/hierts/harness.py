"""Bayes-regret experiments, complexity terms and the analytic regret bound.

Every random quantity is drawn from a named stream derived from
(base seed, instance index, stream id), so results are reproducible bit for
bit regardless of worker count: all agents face the same sampled instance
and context sequence, while each agent keeps its own posterior-sampling and
reward-noise streams.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS, make_agent
from .config import RunConfig
from .envs import Instance, sample_contexts, sample_instance
from .hierarchy import ConfigError, Hierarchy, HierarchyError, PriorSpec, marginal_prior_variances

__all__ = [
    "ConfigError",
    "RunConfig",
    "RegretCurve",
    "BoundReport",
    "RatioResult",
    "run_bayes_regret",
    "dataset_bandit_curve",
    "complexity_term",
    "ts_complexity_term",
    "regret_bound",
    "ratio_experiment",
    "write_regret_csv",
    "write_bound_csv",
    "write_ratio_csv",
]

# Stream ids for per-instance substreams.
_STREAM_INSTANCE = 0
_STREAM_CONTEXT = 1
_STREAM_AGENT = 10  # + agent position in AGENT_KINDS
_STREAM_NOISE = 20  # + agent position in AGENT_KINDS

# Lockstep cells (_cell_runs, _simulate_cell): the smallest block that runs in lockstep, and the caps on a block's
# instances and on a normal block's values that bound its memory. Either loop gives the same bits; the README has
# the measured crossover behind the threshold and the memory bound.
LOCKSTEP_MIN_INSTANCES = 3
LOCKSTEP_MAX_INSTANCES = 16
NORMAL_BLOCK_VALUES = 2**14


@dataclass(frozen=True, eq=False)
class RegretCurve:
    """Mean cumulative Bayes regret per round with standard errors."""

    horizon: int
    instances: int
    agents: tuple[str, ...]
    mean: dict[str, np.ndarray]
    se: dict[str, np.ndarray]

    def final(self, kind: str) -> tuple[float, float]:
        """(mean, se) of cumulative regret at the horizon; (0, 0) when empty."""
        if self.horizon == 0:
            return 0.0, 0.0
        return float(self.mean[kind][-1]), float(self.se[kind][-1])


def _instance_rng(seed: int, run: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run, stream)))


def _normal_blocks(rngs: list[np.random.Generator], width: int, rounds: int):
    """Each round's normals node-major, (width, M): column j the next width standard normals of rngs[j].

    Each stream draws up to NORMAL_BLOCK_VALUES // (width * M) rounds ahead into one row, since
    standard_normal(b * width) equals b draws of width in a row, and one transposing copy per block makes
    the rounds node-major.
    """
    m = len(rngs)
    ahead = max(1, min(rounds, NORMAL_BLOCK_VALUES // (width * m)))
    rows = np.empty((m, ahead * width))
    while rounds > 0:
        size = min(ahead, rounds) * width
        for rng, row in zip(rngs, rows):
            rng.standard_normal(size, out=row[:size])
        yield from rows[:, :size].reshape(m, -1, width).transpose(1, 2, 0).copy()
        rounds -= ahead


def _cell_runs(tasks: list[tuple]) -> list[dict[str, np.ndarray]]:
    """Cumulative per-round regret of each agent kind on each task of one block of a cell, in order.

    A task is (run, seed, hierarchy, prior, horizon, kinds, leaf_means, contexts). leaf_means holds the leaf
    parameters in action order: shape (K,) for the k-armed model (contexts None) or (K, d) for the linear
    model, with one context row per round. All agents of a run face the same means and contexts; each kind's
    agents come from make_agent on their own streams, and each reward goes through agent.update.

    A k-armed block of at least LOCKSTEP_MIN_INSTANCES runs plays its M instances in lockstep: a round draws
    all M agents at once through the kind's lockstep (HierTSAgent.lockstep, TSAgent.lockstep) from normal
    blocks drawn ahead per stream (_normal_blocks) and takes each column's first maximum. Other blocks run
    per agent: each agent acts and updates through every round in turn. Every element of a lockstep draw sees
    the operations of its agent's own act, so both loops give the same bits.
    """
    _, seed, hierarchy, prior, horizon, kinds = tasks[0][:6]
    runs = [task[0] for task in tasks]
    lockstep = prior.is_scalar and len(tasks) >= LOCKSTEP_MIN_INSTANCES
    # Per-round lookups go through Python lists, which index faster than numpy arrays do for single elements,
    # and hand the agents Python floats. Each run's (mean rows, best values, contexts), by round; a k-armed
    # run's rounds share one row, which the lockstep loop reads with its best value directly.
    envs = []
    for *_, leaf_means, contexts in tasks:
        if contexts is not None:
            table = contexts @ leaf_means.T  # (horizon, K)
            envs.append((table.tolist(), table.max(axis=1).tolist(), contexts))
        elif lockstep:
            means = leaf_means.tolist()
            envs.append((means, max(means), None))
        else:
            means = leaf_means.tolist()
            envs.append(([means] * horizon, [max(means)] * horizon, [None] * horizon))
    index = hierarchy.action_index
    actions = hierarchy.action_nodes.tolist()
    out: list[dict[str, np.ndarray]] = [{} for _ in tasks]
    for kind in kinds:
        pos = AGENT_KINDS.index(kind)
        agents = [make_agent(kind, hierarchy, prior, _instance_rng(seed, run, _STREAM_AGENT + pos)) for run in runs]
        noise = [(_instance_rng(seed, run, _STREAM_NOISE + pos).standard_normal(horizon) * prior.noise_std).tolist()
                 for run in runs]
        regret = [[0.0] * horizon for _ in runs]
        cols = list(zip(agents, envs, noise, regret))
        if lockstep:
            width, draw = type(agents[0]).lockstep(agents)
            for t, z in enumerate(_normal_blocks([agent.rng for agent in agents], width, horizon)):
                for (agent, (means, best, _), noise_j, regret_j), i in zip(cols, draw(z).argmax(axis=0).tolist()):
                    mean_a = means[i]
                    agent.update(actions[i], mean_a + noise_j[t])
                    regret_j[t] = best - mean_a
            del draw
        else:
            for agent, (mean_rows, best, xs), noise_j, regret_j in cols:
                for t in range(horizon):
                    x = xs[t]
                    action = agent.act(x)
                    mean_a = mean_rows[t][index[action]]
                    agent.update(action, mean_a + noise_j[t], x)
                    regret_j[t] = best[t] - mean_a
        for run, res, regret_j in zip(runs, out, regret):
            if horizon and min(regret_j) < -1e-12:
                raise AssertionError(f"negative per-round regret for {kind} on instance {run}")
            res[kind] = np.cumsum(regret_j)
        del agents, cols  # one kind's agents at a time
    return out


def _simulate_cell(tasks: Iterable[tuple], runs: int, hierarchy: Hierarchy, prior: PriorSpec) -> list[dict]:
    """_cell_runs on the runs tasks of one cell, in order, in blocks whose sizes are as even as they come.

    A k-armed block holds at most LOCKSTEP_MAX_INSTANCES and NORMAL_BLOCK_VALUES // num_nodes instances, and
    a linear block one, so a block bounds how many states are alive at once. tasks is read one block at a time.
    """
    cap = max(1, min(LOCKSTEP_MAX_INSTANCES, NORMAL_BLOCK_VALUES // hierarchy.num_nodes)) if prior.is_scalar else 1
    blocks, tasks, out = -(-runs // cap), iter(tasks), []
    for b in range(blocks):
        out += _cell_runs(list(itertools.islice(tasks, runs // blocks + (b < runs % blocks))))
    return out


def _regret_curve(
    envs: Iterable[tuple[np.ndarray, np.ndarray | None]],
    runs: int,
    *,
    seed: int,
    hierarchy: Hierarchy,
    prior: PriorSpec,
    horizon: int,
    kinds: tuple[str, ...],
    jobs: int,
) -> RegretCurve:
    """Simulate each (leaf_means, contexts) of envs as one run of a cell and average.

    The cell runs in _simulate_cell's blocks, each through _cell_runs. jobs > 1
    spreads runs over min(jobs, runs) worker processes, one contiguous block of
    runs per worker, which runs as one cell: a block is pickled whole, so its
    runs share one tree and prior and thus the agents' per-cell setup. Results
    are gathered in run order, so the curve does not depend on the worker count.
    """
    tasks = (
        (run, seed, hierarchy, prior, horizon, kinds, means, contexts)
        for run, (means, contexts) in enumerate(envs)
    )
    if jobs > 1 and runs > 1:
        import concurrent.futures  # only a multi-process run needs the pool machinery

        workers = min(jobs, runs)  # the pool starts every worker at the first submit
        size = math.ceil(runs / workers)
        blocks = [list(itertools.islice(tasks, size)) for _ in range(math.ceil(runs / size))]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            cells = pool.map(_simulate_cell, blocks, map(len, blocks), itertools.repeat(hierarchy),
                             itertools.repeat(prior))
            results = [res for cell in cells for res in cell]
    else:
        results = _simulate_cell(tasks, runs, hierarchy, prior)
    mean: dict[str, np.ndarray] = {}
    se: dict[str, np.ndarray] = {}
    for kind in kinds:
        stacked = np.stack([res[kind] for res in results])
        mean[kind] = stacked.mean(axis=0)
        se[kind] = stacked.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(horizon)
    return RegretCurve(horizon=horizon, instances=runs, agents=kinds, mean=mean, se=se)


def run_bayes_regret(
    config: RunConfig, jobs: int = 1, resolved: tuple[Hierarchy, PriorSpec] | None = None
) -> RegretCurve:
    """Simulate config.instances sampled environments and average the regret.

    jobs > 1 spreads instances over worker processes; the aggregation is
    order-fixed, so the result does not depend on the worker count.
    resolved is config.resolve()'s (tree, prior) when the caller already has it.
    """
    hierarchy, prior = config.resolve() if resolved is None else resolved
    seed, n = config.seed, config.horizon

    def envs():
        for run in range(config.instances):
            instance = sample_instance(hierarchy, prior, _instance_rng(seed, run, _STREAM_INSTANCE))
            contexts = None
            if config.model == "linear":
                contexts = sample_contexts(_instance_rng(seed, run, _STREAM_CONTEXT), n, prior.dim)
            yield instance.leaf_parameters(), contexts

    return _regret_curve(
        envs(),
        config.instances,
        seed=seed,
        hierarchy=hierarchy,
        prior=prior,
        horizon=n,
        kinds=config.agents,
        jobs=jobs,
    )


def dataset_bandit_curve(
    instance: Instance,
    dataset,
    *,
    horizon: int,
    runs: int,
    seed: int,
    jobs: int = 1,
) -> RegretCurve:
    """Contextual bandit on a fixed feature-dataset instance.

    Contexts are test rows drawn uniformly with replacement; the instance is
    the same across runs, so run-to-run spread comes from contexts, reward
    noise and posterior sampling only.
    """
    test_features = dataset.features[~dataset.is_train]
    if test_features.shape[0] == 0:
        raise ValueError("dataset has no test rows to serve as contexts")
    theta_leaves = instance.leaf_parameters()

    def envs():
        for run in range(runs):
            rows = _instance_rng(seed, run, _STREAM_CONTEXT).integers(0, test_features.shape[0], size=horizon)
            yield theta_leaves, test_features[rows]

    return _regret_curve(
        envs(),
        runs,
        seed=seed,
        hierarchy=instance.hierarchy,
        prior=instance.prior,
        horizon=horizon,
        kinds=AGENT_KINDS,
        jobs=jobs,
    )


@dataclass(frozen=True)
class BoundReport:
    """Per-node complexity weights and their c-discounted total G(n)."""

    n: int
    c: float
    sigma_max: float
    num_actions: int
    nodes: tuple[tuple[int, int, float, float], ...]  # (node, height, sigma0_sq, w)
    total: float  # G(n)


def _weight(sigma0_sq: float, noise_sq: float, growth: float) -> float:
    return sigma0_sq / math.log1p(sigma0_sq / noise_sq) * math.log1p(growth)


def complexity_term(
    hierarchy: Hierarchy, prior: PriorSpec, n: int, c: float | None = None
) -> BoundReport:
    """G(n): sum over nodes of c**height * w_node.

    Leaf weights grow with the horizon (they absorb up to n observations);
    internal weights only grow with their children's prior precisions. The
    default c = 1 + max_variance / noise_var is the posterior-scaling
    constant; c = 2 suffices when the noise dominates every prior variance.
    A G(n) that overflows raises ConfigError: c grows with the ratio of prior
    variance to noise variance, and its power with the tree height.
    """
    _check_bound_inputs("complexity_term", prior, n)
    noise_sq = prior.noise_std**2
    variances = prior.variances(hierarchy)
    if c is None:
        c = 1.0 + float(np.nanmax(variances)) / noise_sq
    rows = []
    total = 0.0
    for node in range(1, hierarchy.num_nodes + 1):
        s0 = float(variances[node])
        ch = hierarchy.children(node)
        if ch.size == 0:
            w = _weight(s0, noise_sq, s0 * n / noise_sq)
        else:
            w = _weight(s0, noise_sq, s0 * float((1.0 / variances[ch]).sum()))
        h = int(hierarchy.height[node])
        rows.append((node, h, s0, w))
        try:
            total += c**h * w
        except OverflowError:  # a float power raises where a product gives inf
            total = math.inf
    if not math.isfinite(total):
        raise ConfigError(
            f"the complexity term G({n}) is not finite: c = 1 + max prior variance / noise_std**2 = {c:g} "
            f"at tree height {hierarchy.tree_height}; lower the prior variances (prior.value, "
            "prior.node_variance) or raise noise_std"
        )
    marginal = marginal_prior_variances(hierarchy, prior)
    sigma_max = math.sqrt(float(marginal[hierarchy.action_nodes].max()))
    return BoundReport(
        n=n,
        c=c,
        sigma_max=sigma_max,
        num_actions=hierarchy.num_actions,
        nodes=tuple(rows),
        total=total,
    )


def _check_bound_inputs(name: str, prior: PriorSpec, n: int) -> None:
    """HierarchyError unless the prior is scalar; ValueError unless the horizon n is at least 1."""
    if not prior.is_scalar:
        raise HierarchyError(f"{name} requires a scalar prior")
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")


def ts_complexity_term(hierarchy: Hierarchy, prior: PriorSpec, n: int) -> float:
    """G(n) of the independent-arm agent: leaf weights at marginal variances."""
    _check_bound_inputs("ts_complexity_term", prior, n)
    noise_sq = prior.noise_std**2
    marginal = marginal_prior_variances(hierarchy, prior)
    total = 0.0
    for a in hierarchy.action_nodes:
        s0 = float(marginal[a])
        total += _weight(s0, noise_sq, s0 * n / noise_sq)
    return total


def regret_bound(report: BoundReport, delta: float) -> float:
    """Analytic Bayes-regret bound: sqrt(2 n G log(1/delta)) plus the
    sqrt(2/pi) sigma_max K n delta tail term."""
    if not (0 < delta < 1 and math.isfinite(1.0 / delta)):  # a subnormal delta's reciprocal overflows to inf
        raise ValueError(f"delta must lie in (0, 1) with a finite 1 / delta, got {delta}")
    head = math.sqrt(2.0 * report.n * report.total * math.log(1.0 / delta))
    tail = math.sqrt(2.0 / math.pi) * report.sigma_max * report.num_actions * report.n * delta
    if not math.isfinite(head + tail):
        raise ConfigError(
            f"the regret bound is not finite at horizon {report.n} and G(n) = {report.total:g}; lower the "
            "prior variances (prior.value, prior.node_variance) or raise noise_std"
        )
    return head + tail


@dataclass(frozen=True, eq=False)
class RatioResult:
    """Final-regret ratios TS / agent per height, with propagated SE."""

    heights: tuple[int, ...]
    agents: tuple[str, ...]
    ratio: dict[str, np.ndarray]
    se: dict[str, np.ndarray]
    curves: tuple[RegretCurve, ...]


def ratio_experiment(config: RunConfig, heights: tuple[int, ...], jobs: int = 1) -> RatioResult:
    """Rerun config at several tree heights and compare agents against TS.

    The ratio at height h is TS final regret / agent final regret; its SE
    propagates the two standard errors to first order. config must include
    the TS agent and at least one other. A final mean regret of 0, which
    leaves a ratio undefined, raises ConfigError naming the height and agent.
    """
    if "TS" not in config.agents:
        raise ConfigError("ratio_experiment requires the TS agent in config.agents")
    others = tuple(k for k in config.agents if k != "TS")
    if not others:
        raise ConfigError("ratio_experiment requires at least one non-TS agent")
    if not heights:
        raise ConfigError("at least one height is required")
    if config.branching is None:
        raise ConfigError("ratio_experiment requires a balanced-tree config (branching + height)")
    configs = [dataclasses.replace(config, height=int(h)) for h in heights]  # every height checked before a run
    curves = []
    ratio: dict[str, list[float]] = {k: [] for k in others}
    se: dict[str, list[float]] = {k: [] for k in others}
    for cfg in configs:
        curve = run_bayes_regret(cfg, jobs=jobs)
        curves.append(curve)
        ts_mean, ts_se = curve.final("TS")
        for kind in others:
            a_mean, a_se = curve.final(kind)
            if a_mean <= 0 or ts_mean <= 0:
                raise ConfigError(
                    f"ratio at height {cfg.height}: {'TS' if ts_mean <= 0 else kind} has zero final regret over "
                    f"{cfg.instances} instance(s), so TS / {kind} is undefined; raise horizon or instances"
                )
            r = ts_mean / a_mean
            ratio[kind].append(r)
            se[kind].append(r * math.hypot(ts_se / ts_mean, a_se / a_mean))
    return RatioResult(
        heights=tuple(int(h) for h in heights),
        agents=others,
        ratio={k: np.array(v) for k, v in ratio.items()},
        se={k: np.array(v) for k, v in se.items()},
        curves=tuple(curves),
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_regret_csv(curve: RegretCurve, path: str | Path) -> None:
    """One row per round and agent; each agent's rows are one template applied to a flat tuple (_fmt's format)."""
    blocks = ["round,agent,mean_regret,se,instances\n"]
    for kind in curve.agents:
        rows = np.column_stack((np.arange(1, curve.horizon + 1), curve.mean[kind], curve.se[kind])).ravel()
        blocks.append((f"%d,{kind},%.12g,%.12g,{curve.instances}\n" * curve.horizon) % tuple(rows.tolist()))
    Path(path).write_text("".join(blocks))


def write_bound_csv(report: BoundReport, path: str | Path) -> None:
    lines = ["node,height,sigma0_sq,w_i"]
    for node, height, s0, w in report.nodes:
        lines.append(f"{node},{height},{_fmt(s0)},{_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_ratio_csv(result: RatioResult, path: str | Path) -> None:
    lines = ["h,agent,ratio,se"]
    for kind in result.agents:
        for i, h in enumerate(result.heights):
            lines.append(f"{h},{kind},{_fmt(result.ratio[kind][i])},{_fmt(result.se[kind][i])}")
    Path(path).write_text("\n".join(lines) + "\n")
