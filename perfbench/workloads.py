"""The three benchmark workloads, their inputs and their output gate.

Each op is one `hierts` command run in-process through `hierts.cli.main`
with `--jobs 1` and its own `--seed`. Op seeds come from a fixed pool per
workload (per dataset for classify-d10); the workload seed picks the
dataset and the order in which pool entries run. Because the pool is fixed,
`reference.json` holds the seed code's output digest and final regrets for
every op a run can make, so a run can be checked against a reference
recorded for the same op seeds whatever workload seed it is given.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

AGENTS = ("HierTS", "FlatTS", "TS")
REL_TOL = 1e-10  # summary.json floats against their 12-digit CSV rendering


class Workload:
    """One benchmark workload: inputs, op command lines and output checks."""

    name = ""
    pool_size = 64
    tail_pct = 75  # highest percentile with at least 10 ops beyond it at min_ops
    min_ops = 40
    ordering_check = False  # pooled HierTS final regret must be below TS
    rounds_per_op = 0  # agent-rounds one op simulates

    def pool_key(self, seed: int) -> str:
        """Reference-table section the workload seed selects."""
        return "all"

    def op_sequence(self, seed: int):
        """Endless (reference key, cli seed) pairs in the seed's order."""
        order = np.random.default_rng(seed).permutation(self.pool_size)
        i = 0
        while True:
            op_seed = int(order[i % self.pool_size])
            yield f"{self.pool_key(seed)}/{op_seed}", op_seed
            i += 1

    def prepare(self, seed: int, inputs: Path) -> None:
        """Write the input files the program reads."""
        raise NotImplementedError

    def argv(self, inputs: Path, out: Path, op_seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[list[str], dict[str, float], str, dict]:
        """Validate one op's output directory.

        Returns (problems, pooled quantities, digest of the main CSV, extras).
        """
        raise NotImplementedError

    def spot_problems(self, seed: int, inputs: Path):
        """(label, hierarchy, prior) triples for the oracle spot check."""
        raise NotImplementedError

    def setup(self, inputs: Path) -> None:
        """Per-experiment setup through public functions, up to the first round."""
        raise NotImplementedError


def _make_agents(hierarchy, prior) -> None:
    from hierts import AGENT_KINDS, make_agent

    for kind in AGENT_KINDS:
        make_agent(kind, hierarchy, prior, np.random.default_rng(0))


def _missing(out: Path, names: tuple[str, ...]) -> list[str]:
    problems = [f"missing {n}" for n in names if not (out / n).is_file()]
    for n in names:
        if n.endswith(".svg") and (out / n).is_file() and "</svg>" not in (out / n).read_text():
            problems.append(f"{n} is not a complete SVG")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_regret_outputs(
    out: Path, horizon: int, instances: int
) -> tuple[list[str], dict[str, float], str, dict]:
    """Gate for `simulate` and `classify-bandit` run directories."""
    problems = _missing(out, ("regret.csv", "regret.svg", "summary.json", "replay.json"))
    if problems:
        return problems, {}, "", {}
    csv_path = out / "regret.csv"
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != "round,agent,mean_regret,se,instances":
        return ["regret.csv header is wrong"], {}, "", {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != horizon * len(AGENTS):
        problems.append(f"regret.csv has {len(rows)} rows, expected {horizon * len(AGENTS)}")
        return problems, {}, "", {}
    finals: dict[str, float] = {}
    last_rows: dict[str, tuple[float, float]] = {}
    for k, kind in enumerate(AGENTS):
        block = rows[k * horizon:(k + 1) * horizon]
        if any(r[1] != kind for r in block) or [int(r[0]) for r in block] != list(range(1, horizon + 1)):
            problems.append(f"regret.csv rows for {kind} are out of order")
            continue
        if any(int(r[4]) != instances for r in block):
            problems.append(f"regret.csv instances column for {kind} is not {instances}")
        mean = np.array([float(r[2]) for r in block])
        se = np.array([float(r[3]) for r in block])
        if not (np.isfinite(mean).all() and np.isfinite(se).all()):
            problems.append(f"non-finite regret values for {kind}")
            continue
        if (se < 0).any():
            problems.append(f"negative se for {kind}")
        if (np.diff(mean) < -1e-9 * np.maximum(1.0, np.abs(mean[:-1]))).any():
            problems.append(f"mean_regret decreases for {kind}")
        finals[kind] = float(mean[-1])
        last_rows[kind] = (float(mean[-1]), float(se[-1]))
    summary = json.loads((out / "summary.json").read_text())
    for kind, (mean, se) in last_rows.items():
        got = summary.get("final_regret", {}).get(kind, {})
        if not (_close(got.get("mean", math.nan), mean) and _close(got.get("se", math.nan), se)):
            problems.append(f"summary.json final regret of {kind} differs from the last CSV row")
    extras = {"floored_nodes": len(summary.get("floored_nodes", []))}
    return problems, finals, _digest(csv_path), extras


class RatioSmall(Workload):
    name = "ratio-small"
    heights = (1, 2, 3)
    instances = 2
    horizon = 500
    rounds_per_op = instances * horizon * len(AGENTS) * len(heights)

    def prepare(self, seed: int, inputs: Path) -> None:
        # Same shape as configs/ratio_constant_b2.json, fewer instances per op.
        doc = {
            "heights": list(self.heights),
            "tree": {"b": 2},
            "prior": {"scheme": "constant", "value": 1.0},
            "noise_std": 1.0,
            "horizon": self.horizon,
            "instances": self.instances,
            "seed": 0,
        }
        (inputs / "ratio.json").write_text(json.dumps(doc))

    def argv(self, inputs: Path, out: Path, op_seed: int) -> list[str]:
        return ["ratio", "--config", str(inputs / "ratio.json"), "--out", str(out),
                "--seed", str(op_seed), "--jobs", "1"]

    def check(self, out: Path):
        problems = _missing(out, ("ratios.csv", "ratios.svg", "summary.json", "replay.json"))
        if problems:
            return problems, {}, "", {}
        csv_path = out / "ratios.csv"
        lines = csv_path.read_text().splitlines()
        expected = [(h, kind) for kind in AGENTS[:2] for h in self.heights]
        if not lines or lines[0] != "h,agent,ratio,se" or len(lines) - 1 != len(expected):
            return [f"ratios.csv has the wrong header or {len(lines) - 1} rows"], {}, "", {}
        summary = json.loads((out / "summary.json").read_text())
        if summary.get("heights") != list(self.heights):
            problems.append("summary.json heights differ from the config")
        values: dict[str, float] = {}
        for line, (h, kind) in zip(lines[1:], expected):
            fields = line.split(",")
            if (int(fields[0]), fields[1]) != (h, kind):
                problems.append(f"ratios.csv row {line!r} is out of order")
                continue
            ratio, se = float(fields[2]), float(fields[3])
            if not (math.isfinite(ratio) and ratio > 0):
                problems.append(f"ratio for {kind} at h={h} is not positive and finite")
            if not (math.isfinite(se) and se >= 0):
                problems.append(f"se for {kind} at h={h} is not finite and nonnegative")
            i = self.heights.index(h)
            try:
                same = _close(summary["ratio"][kind][i], ratio) and _close(summary["se"][kind][i], se)
            except (KeyError, IndexError, TypeError):
                same = False
            if not same:
                problems.append(f"summary.json ratio of {kind} at h={h} differs from ratios.csv")
            values[f"{kind}@h{h}"] = ratio
        return problems, values, _digest(csv_path), {}

    def spot_problems(self, seed: int, inputs: Path):
        from hierts import balanced_tree, constant_prior

        out = []
        for h in self.heights:
            tree = balanced_tree(2, h)
            out.append((f"b2h{h}", tree, constant_prior(tree, 1.0, 1.0)))
        return out

    def setup(self, inputs: Path) -> None:
        import dataclasses

        from hierts import RunConfig

        doc = json.loads((inputs / "ratio.json").read_text())
        heights = doc.pop("heights")
        doc["tree"]["h"] = heights[0]
        config = RunConfig.from_dict(doc)
        for h in heights:
            _make_agents(*dataclasses.replace(config, height=h).resolve())


class SimulateDeep(Workload):
    name = "simulate-deep"
    instances = 4
    horizon = 500
    rounds_per_op = instances * horizon * len(AGENTS)
    ordering_check = True

    def prepare(self, seed: int, inputs: Path) -> None:
        doc = {
            "tree": {"b": 2, "h": 8},
            "prior": {"scheme": "doubling"},
            "noise_std": 1.0,
            "horizon": self.horizon,
            "instances": self.instances,
            "seed": 0,
        }
        (inputs / "simulate.json").write_text(json.dumps(doc))

    def argv(self, inputs: Path, out: Path, op_seed: int) -> list[str]:
        return ["simulate", "--config", str(inputs / "simulate.json"), "--out", str(out),
                "--seed", str(op_seed), "--jobs", "1"]

    def check(self, out: Path):
        problems, finals, digest, extras = check_regret_outputs(out, self.horizon, self.instances)
        if not problems:
            summary = json.loads((out / "summary.json").read_text())
            bound = summary.get("bound", {}).get("value")
            if not (isinstance(bound, float) and math.isfinite(bound) and bound > 0):
                problems.append("summary.json carries no positive finite regret bound")
        return problems, finals, digest, extras

    def spot_problems(self, seed: int, inputs: Path):
        from hierts import balanced_tree, doubling_prior

        tree = balanced_tree(2, 8)
        return [("b2h8", tree, doubling_prior(tree, 1.0))]

    def setup(self, inputs: Path) -> None:
        from hierts import RunConfig

        _make_agents(*RunConfig.from_json_file(inputs / "simulate.json").resolve())


class ClassifyD10(Workload):
    name = "classify-d10"
    datasets = 4  # the workload seed picks one of these generated datasets
    pool_size = 32
    tail_pct = 65
    min_ops = 30
    horizon = 2000
    runs = 1
    noise_std = 0.5
    rounds_per_op = runs * horizon * len(AGENTS)
    ordering_check = True

    def pool_key(self, seed: int) -> str:
        return f"d{seed % self.datasets}"

    def prepare(self, seed: int, inputs: Path) -> None:
        from hierts import make_cluster_dataset, save_tree_json, write_dataset_csv

        rng = np.random.default_rng(seed % self.datasets)
        dataset, hierarchy, label_map = make_cluster_dataset(rng, num_groups=5, classes_per_group=5, dim=10)
        write_dataset_csv(inputs / "data.csv", dataset, label_map)
        save_tree_json(inputs / "tree.json", hierarchy, label_map=label_map)

    def argv(self, inputs: Path, out: Path, op_seed: int) -> list[str]:
        return ["classify-bandit", "--dataset", str(inputs / "data.csv"),
                "--hierarchy", str(inputs / "tree.json"), "--out", str(out),
                "--horizon", str(self.horizon), "--runs", str(self.runs),
                "--noise-std", str(self.noise_std), "--seed", str(op_seed), "--jobs", "1"]

    def check(self, out: Path):
        return check_regret_outputs(out, self.horizon, self.runs)

    def spot_problems(self, seed: int, inputs: Path):
        from hierts import fit_priors_from_data, load_feature_dataset, load_tree_json

        tree, _, label_map = load_tree_json(inputs / "tree.json")
        dataset = load_feature_dataset(inputs / "data.csv", tree, label_map)
        prior, _, _ = fit_priors_from_data(dataset, tree, noise_std=self.noise_std)
        return [("clusters-d10", tree, prior)]

    def setup(self, inputs: Path) -> None:
        # load_tree_json + load_feature_dataset + fit_priors_from_data, as the CLI does.
        _make_agents(*self.spot_problems(0, inputs)[0][1:])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (RatioSmall(), SimulateDeep(), ClassifyD10())}
