"""Command line interface.

Subcommands: simulate, ratio, bound, verify-oracle, classify-bandit.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
error. An ill-conditioned prior or posterior (ConditioningError) is not
caught: it ends with a traceback and exit 1.
Every run directory gets a replay.json sidecar with the resolved
configuration and seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from .envs import COVARIANCE_FLOOR, dataset_instance, fit_priors_from_data, load_feature_dataset
from .harness import (
    RunConfig,
    complexity_term,
    dataset_bandit_curve,
    ratio_experiment,
    regret_bound,
    run_bayes_regret,
    write_bound_csv,
    write_ratio_csv,
    write_regret_csv,
)
from .hierarchy import ConfigError, _check_int, _load_json_object, load_tree_json, marginal_prior_variances
from .svgchart import write_line_chart

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_IO = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Bayes-regret experiment")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")

    rat = sub.add_parser("ratio", help="regret ratios against TS across tree heights")
    rat.add_argument("--config", required=True, help="config JSON with a 'heights' list")
    rat.add_argument("--out", required=True)
    rat.add_argument("--seed", type=int, default=None)
    rat.add_argument("--jobs", type=int, default=None)

    bnd = sub.add_parser("bound", help="complexity term and analytic regret bound")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--out", required=True)

    ver = sub.add_parser("verify-oracle", help="randomized recursion-vs-oracle verification")
    ver.add_argument("--config", default=None, help="optional suite-size config JSON")
    ver.add_argument("--seed", type=int, default=None)

    cls = sub.add_parser("classify-bandit", help="contextual bandit on a feature dataset")
    cls.add_argument("--dataset", required=True, help="feature CSV (id,label,split,f1..fd)")
    cls.add_argument("--hierarchy", required=True, help="tree JSON with a label_map")
    cls.add_argument("--out", required=True)
    cls.add_argument("--horizon", type=int, default=2000)
    cls.add_argument("--runs", type=int, default=10)
    cls.add_argument("--seed", type=int, default=0)
    cls.add_argument("--noise-std", type=float, default=0.5)
    cls.add_argument("--diagonal", action="store_true", help="fit diagonal covariances only")
    cls.add_argument("--jobs", type=int, default=None)
    return parser


def _jobs(value: int | None) -> int:
    if value is not None:
        if value < 1:
            raise ConfigError(f"--jobs must be at least 1, got {value}")
        return value
    return os.cpu_count() or 1


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _bound_fields(report, delta: float) -> dict:
    """Complexity-term fields that the simulate and bound summaries share."""
    return {"c": report.c, "G": report.total, "delta": delta, "sigma_max": report.sigma_max}


def _regret_svg(curve, out: Path, title: str) -> None:
    rounds = np.arange(1, curve.horizon + 1)
    series = [
        {"name": kind, "x": rounds, "y": curve.mean[kind], "band": curve.se[kind]}
        for kind in curve.agents
    ]
    write_line_chart(
        out / "regret.svg", series, title=title, x_label="round", y_label="cumulative regret"
    )


def _cmd_simulate(args) -> int:
    config = RunConfig.from_json_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = _outdir(args.out)
    jobs = _jobs(args.jobs)
    hierarchy, prior = config.resolve()
    curve = run_bayes_regret(config, jobs=jobs, resolved=(hierarchy, prior))
    write_regret_csv(curve, out / "regret.csv")
    _regret_svg(curve, out, "Bayes regret")
    summary: dict = {
        "config": config.to_dict(),
        "final_regret": {k: dict(zip(("mean", "se"), curve.final(k))) for k in curve.agents},
    }
    if config.model == "k-armed" and config.horizon >= 1:
        report = complexity_term(hierarchy, prior, config.horizon)
        delta = config.resolved_delta()
        summary["bound"] = {**_bound_fields(report, delta), "value": regret_bound(report, delta)}
    _write_json(out / "summary.json", summary)
    _write_json(out / "replay.json", {"command": "simulate", "config": config.to_dict(), "seed": config.seed})
    return EXIT_OK


def _cmd_ratio(args) -> int:
    doc = _load_json_object(args.config)
    if "heights" not in doc:
        raise ConfigError(f"{args.config}: ratio config needs a 'heights' list")
    heights = doc.pop("heights")
    if not isinstance(heights, list) or not heights or not all(_check_int("heights", h) >= 1 for h in heights):
        raise ConfigError("'heights' must be a non-empty list of integers >= 1")
    tree = doc.get("tree")
    if isinstance(tree, dict) and "b" in tree:  # only a balanced tree has a height to vary
        tree.setdefault("h", heights[0])
    config = RunConfig.from_dict(doc)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = _outdir(args.out)
    result = ratio_experiment(config, tuple(heights), jobs=_jobs(args.jobs))
    write_ratio_csv(result, out / "ratios.csv")
    hs = np.asarray(result.heights, float)
    series = [
        {"name": kind, "x": hs, "y": result.ratio[kind], "band": result.se[kind]}
        for kind in result.agents
    ]
    write_line_chart(
        out / "ratios.svg", series, title="Regret ratio vs TS", x_label="tree height", y_label="ratio"
    )
    summary = {
        "config": config.to_dict(),
        "heights": list(result.heights),
        "ratio": {k: [float(v) for v in result.ratio[k]] for k in result.agents},
        "se": {k: [float(v) for v in result.se[k]] for k in result.agents},
    }
    _write_json(out / "summary.json", summary)
    _write_json(
        out / "replay.json",
        {"command": "ratio", "config": config.to_dict(), "heights": list(result.heights), "seed": config.seed},
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    config = RunConfig.from_json_file(args.config)
    if config.model != "k-armed":
        raise ConfigError("the bound command covers the k-armed model only")
    hierarchy, prior = config.resolve()
    out = _outdir(args.out)
    n = max(config.horizon, 1)
    report = complexity_term(hierarchy, prior, n)
    delta = config.resolved_delta()
    write_bound_csv(report, out / "bound.csv")
    variances = marginal_prior_variances(hierarchy, prior)
    marginals = {str(int(a)): float(variances[a]) for a in hierarchy.action_nodes}
    summary = {
        "config": config.to_dict(),
        "n": n,
        **_bound_fields(report, delta),
        "bound": regret_bound(report, delta),
        "marginal_prior_variance": marginals,
    }
    if config.prior_scheme == "doubling":
        # The geometric-series shorthand 2**(h+1) overstates the exact
        # marginal 2**(h+1) - 1; both are reported for comparison.
        summary["doubling_marginal_exact"] = max(marginals.values())
        summary["doubling_marginal_nominal"] = float(2 ** (hierarchy.tree_height + 1))
    _write_json(out / "summary.json", summary)
    _write_json(out / "replay.json", {"command": "bound", "config": config.to_dict(), "seed": config.seed})
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = {
        "base_seed": 0,
        "scalar_cases": 100,
        "linear_cases": 30,
        "lemma_runs": 20,
        "horizon": 100,
    }
    if args.config is not None:
        doc = _load_json_object(args.config)
        keys = ("seed", "scalar_cases", "linear_cases", "lemma_runs", "horizon")
        unknown = set(doc) - set(keys)
        if unknown:
            raise ConfigError(f"unknown verify config keys: {sorted(unknown)}")
        for key in keys:
            if key not in doc:
                continue
            value = _check_int(key, doc[key])
            if key == "seed":
                params["base_seed"] = value
            elif value < 0:
                raise ConfigError(f"{key} must be nonnegative, got {value}")
            else:
                params[key] = value
    if args.seed is not None:
        params["base_seed"] = args.seed
    report = checks.run_default_suites(**params)
    if not report.results:
        print("warning: all suite sizes are zero; nothing was checked")
        print("suite result: PASS (vacuous)")
        return EXIT_OK
    print(report.describe())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_classify(args) -> int:
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be at least 1, got {args.horizon}")
    if args.runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")
    if args.noise_std <= 0:
        raise ConfigError(f"--noise-std must be positive, got {args.noise_std}")
    hierarchy, _, label_map = load_tree_json(args.hierarchy)
    if not label_map:
        raise ConfigError(f"{args.hierarchy}: classify-bandit needs a label_map section")
    dataset = load_feature_dataset(args.dataset, hierarchy, label_map)
    prior, theta_star, fit = fit_priors_from_data(
        dataset, hierarchy, noise_std=args.noise_std, diagonal=args.diagonal
    )
    instance = dataset_instance(hierarchy, prior, theta_star)
    curve = dataset_bandit_curve(
        instance,
        dataset,
        horizon=args.horizon,
        runs=args.runs,
        seed=args.seed,
        jobs=_jobs(args.jobs),
    )
    out = _outdir(args.out)
    write_regret_csv(curve, out / "regret.csv")
    _regret_svg(curve, out, "Feature-dataset bandit regret")
    run = {
        "dataset": str(args.dataset),
        "hierarchy": str(args.hierarchy),
        "horizon": args.horizon,
        "runs": args.runs,
        "seed": args.seed,
        "noise_std": args.noise_std,
        "diagonal": args.diagonal,
    }
    summary = {
        **run,
        "floored_nodes": list(fit.floored_nodes),
        "covariance_floor": COVARIANCE_FLOOR,
        "final_regret": {k: dict(zip(("mean", "se"), curve.final(k))) for k in curve.agents},
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "replay.json", {"command": "classify-bandit", **run})
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "ratio": _cmd_ratio,
        "bound": _cmd_bound,
        "verify-oracle": _cmd_verify,
        "classify-bandit": _cmd_classify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # ConfigError, HierarchyError and DatasetError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
