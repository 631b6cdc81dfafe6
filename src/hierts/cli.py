"""Command line interface.

Subcommands: simulate, ratio, bound, verify-oracle, classify-bandit. Each
reads its input through hierts.config.read: its JSON document, with the
flags that are set laid over it, read once through its table.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
error. An ill-conditioned prior or posterior (ConditioningError) is not
caught: it ends with a traceback and exit 1.
simulate, ratio and bound write their run's config document (the fields
that applied, with the seed in effect) to replay.json, which --config reruns
byte for byte; classify-bandit's replay.json records its flags.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, jobs, read
from .envs import COVARIANCE_FLOOR, dataset_instance, fit_priors_from_data, load_feature_dataset
from .harness import (complexity_term, dataset_bandit_curve, ratio_experiment, regret_bound, run_bayes_regret,
                      write_bound_csv, write_ratio_csv, write_regret_csv)
from .hierarchy import ConfigError, load_tree_json, marginal_prior_variances
from .svgchart import write_line_chart

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_IO = 3


@functools.cache
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
    cls.add_argument("--horizon", type=int)
    cls.add_argument("--runs", type=int)
    cls.add_argument("--seed", type=int)
    cls.add_argument("--noise-std", type=float)
    cls.add_argument("--diagonal", action="store_true", help="fit diagonal covariances only")
    cls.add_argument("--jobs", type=int, default=None)
    return parser


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run(out: Path, doc: dict, summary: dict, replay: dict | None = None) -> None:
    """summary.json with doc as its config block, and replay.json: doc, or replay where a command adds to it."""
    _write_json(out / "summary.json", {"config": doc, **summary})
    _write_json(out / "replay.json", doc if replay is None else replay)


def _bound_fields(report, delta: float) -> dict:
    """Complexity-term fields that the simulate and bound summaries share."""
    return {"c": report.c, "G": report.total, "delta": delta, "sigma_max": report.sigma_max}


def _chart(path: Path, x, mean: dict, se: dict, agents, **labels) -> None:
    """One line per agent kind, with its standard-error band."""
    write_line_chart(path, [{"name": k, "x": x, "y": mean[k], "band": se[k]} for k in agents], **labels)


def _regret_svg(curve, out: Path, title: str) -> None:
    _chart(out / "regret.svg", np.arange(1, curve.horizon + 1), curve.mean, curve.se, curve.agents,
           title=title, x_label="round", y_label="cumulative regret")


def _cmd_simulate(args) -> int:
    config = RunConfig(**read("simulate", args.config, {"seed": args.seed}))
    hierarchy, prior = config.resolve()
    summary: dict = {}
    delta = config.resolved_delta()
    # before the run: a bound that overflows is an input error
    if config.model == "k-armed" and config.horizon >= 1 and delta is not None:
        report = complexity_term(hierarchy, prior, config.horizon)
        summary["bound"] = {**_bound_fields(report, delta), "value": regret_bound(report, delta)}
    curve = run_bayes_regret(config, jobs=jobs(args.jobs), resolved=(hierarchy, prior))
    out = _outdir(args.out)
    write_regret_csv(curve, out / "regret.csv")
    _regret_svg(curve, out, "Bayes regret")
    summary["final_regret"] = {k: dict(zip(("mean", "se"), curve.final(k))) for k in curve.agents}
    _write_run(out, config.to_dict(), summary)
    return EXIT_OK


def _cmd_ratio(args) -> int:
    values = read("ratio", args.config, {"seed": args.seed})
    heights = values.pop("heights")
    if values["branching"] is not None:  # only a balanced tree has a height to vary
        values["height"] = heights[0]
    config = RunConfig(**values)
    result = ratio_experiment(config, tuple(heights), jobs=jobs(args.jobs))
    out = _outdir(args.out)
    write_ratio_csv(result, out / "ratios.csv")
    _chart(out / "ratios.svg", np.asarray(result.heights, float), result.ratio, result.se, result.agents,
           title="Regret ratio vs TS", x_label="tree height", y_label="ratio")
    doc = {k: v for k, v in config.to_dict().items() if k != "height"}  # heights sets it
    summary = {
        "heights": list(result.heights),
        "ratio": {k: [float(v) for v in result.ratio[k]] for k in result.agents},
        "se": {k: [float(v) for v in result.se[k]] for k in result.agents},
    }
    _write_run(out, doc, summary, {**doc, "heights": list(result.heights)})
    return EXIT_OK


def _cmd_bound(args) -> int:
    config = RunConfig(**read("bound", args.config, {}))
    if config.model != "k-armed":
        raise ConfigError("the bound command covers the k-armed model only")
    delta = config.resolved_delta()
    if delta is None:
        raise ConfigError(f"no default delta at horizon {config.horizon}: 1/horizon is not in (0, 1); "
                          "set delta or a horizon of at least 2")
    hierarchy, prior = config.resolve()
    n = max(config.horizon, 1)
    report = complexity_term(hierarchy, prior, n)
    variances = marginal_prior_variances(hierarchy, prior)
    marginals = {str(int(a)): float(variances[a]) for a in hierarchy.action_nodes}
    summary = {
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
    out = _outdir(args.out)
    write_bound_csv(report, out / "bound.csv")
    _write_run(out, config.to_dict(), summary)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import checks  # only verify-oracle runs the suites, so other commands do not load them

    params = read("verify-oracle", args.config, {"seed": args.seed})
    report = checks.run_default_suites(params.pop("seed"), **params)
    if not report.results:
        print("warning: all suite sizes are zero; nothing was checked")
        print("suite result: PASS (vacuous)")
        return EXIT_OK
    print(report.describe())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_classify(args) -> int:
    flags = {"--horizon": args.horizon, "--runs": args.runs, "--seed": args.seed, "--noise-std": args.noise_std}
    run = {"dataset": str(args.dataset), "hierarchy": str(args.hierarchy), "diagonal": args.diagonal,
           **{flag[2:].replace("-", "_"): v for flag, v in read("classify-bandit", None, flags).items()}}
    hierarchy, _, label_map = load_tree_json(args.hierarchy)
    if not label_map:
        raise ConfigError(f"{args.hierarchy}: classify-bandit needs a label_map section")
    dataset = load_feature_dataset(args.dataset, hierarchy, label_map)
    prior, theta_star, fit = fit_priors_from_data(dataset, hierarchy, noise_std=run["noise_std"],
                                                  diagonal=args.diagonal)
    instance = dataset_instance(hierarchy, prior, theta_star)
    curve = dataset_bandit_curve(instance, dataset, horizon=run["horizon"], runs=run["runs"], seed=run["seed"],
                                 jobs=jobs(args.jobs))
    out = _outdir(args.out)
    write_regret_csv(curve, out / "regret.csv")
    _regret_svg(curve, out, "Feature-dataset bandit regret")
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
