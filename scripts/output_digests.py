#!/usr/bin/env python3
"""Run a fixed set of CLI commands and write a sha256 manifest of every output file.

The set covers each output-writing command:
- `simulate` on configs/doubling_b5_h2.json, explicit_tree.json,
  constant_b2_h2_linear.json, mixed_depth_tree.json (leaves at depths 1,
  2 and 3, so a level and the root-first sample order that are not runs of
  consecutive ids, and a 9-child parent) and doubling_b2_h7.json (255 nodes and
  a 129-node flat tree), and on two tree
  files with a prior section (`"prior": {"scheme": "file"}`), one scalar
  and one linear, that the script writes with save_tree_json;
- `ratio` on configs/ratio_constant_b2.json;
- `classify-bandit` on a generated 6-dim clustered dataset (horizon 1000,
  6 runs);
each at --jobs 1 and --jobs 2, plus `bound` on doubling_b5_h2.json and
explicit_tree.json, plus the printed report of `verify-oracle --seed 0` and
`--seed 5` (saved as runs/verify-oracle-seed{0,5}/stdout.txt). It also saves
raw scalar and linear draws (draws/<tree>/<route>.bin, the array's bytes) on
b=2 h=3, b=16 h=2, a random tree with leaves at mixed depths and b=2 h=5,
after 60 updates each: the scalar draw without a size, which walks the
state's Python floats (scalar-float), the same draw as the one column of a
posterior.LockstepDraw fed the same normals, whose state joined it before the
updates and wrote them through (scalar-levels: the numpy level loop of the
harness's lockstep cells), a sized scalar draw, and a linear (d=3) draw
without and with a size. It stops unless the two scalar draws without a size
give the same bytes, and unless each sized draw equals that many draws
without a size in a row. On each tree it also stops unless every column of a
3-column LockstepDraw equals the bytes of that state's own draw; it writes no
file for this. Run outputs average draws away, and these show a change in a
draw's last bit. At d=10, the
dimension of the benchmark's classify workload, it saves the same on the
fitted 5x5 cluster tree after 200 updates (draws/fitted-d10/): the linear
draws without and with a size, the fold caches of a LinearPosteriorState
(post_cov, post_factor, slope, intercept, msg_prec, msg_wmean) and a
TSAgent's arm moments (mean, cov, factor). A change that should
leave outputs byte-identical diffs the manifest of its parent against its own:

    PYTHONPATH=src python scripts/output_digests.py --out /tmp/digests-new
    diff /tmp/digests-old/MANIFEST /tmp/digests-new/MANIFEST

tests/test_output_digests.py reuses run, manifest and write_draws to check a fast
subset of these outputs in tier-1 against tests/data/output_digests.txt.

The manifest lists `sha256  path` lines sorted by path, with paths relative
to --out. OUTPUTS lists the same lines for every file but replay.json, with
each summary.json hashed without its `config` block: it stays identical
across a change that only alters which config fields a run records. Commands run inside --out with relative paths, since
classify-bandit records its input paths in replay.json. The whole set takes
about 75 s on 2 cores, most of it the ratio runs.
"""
import argparse
import contextlib
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from hierts import LinearPosteriorState, PosteriorState, TSAgent, cli, hierts_sample, posterior
from hierts.checks import random_linear_prior, random_scalar_prior, random_tree
from hierts.envs import fit_priors_from_data, make_cluster_dataset, write_dataset_csv
from hierts.hierarchy import PriorSpec, balanced_tree, doubling_prior, save_tree_json

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIMULATE = ("doubling_b5_h2", "explicit_tree", "constant_b2_h2_linear", "mixed_depth_tree", "doubling_b2_h7")
BOUND = ("doubling_b5_h2", "explicit_tree")
JOBS = (1, 2)
VERIFY_SEEDS = (0, 5)


def write_tree_file_configs(data: Path) -> list[Path]:
    """Scalar and linear tree files with priors, and a simulate config reading each; returns the configs."""
    tree = balanced_tree(3, 2)
    scalar = doubling_prior(tree, noise_std=0.8, hyper_mean=0.25)
    base = np.array([[1.0, 0.3], [0.3, 0.5]])
    linear = PriorSpec(
        hyper_mean=np.array([0.1, -0.2]),
        node_variance={n: base * 2.0 ** int(tree.height[n]) for n in range(1, tree.num_nodes + 1)},
        noise_std=0.5,
    )
    configs = []
    for name, prior, extra in (("scalar", scalar, {}), ("linear", linear, {"model": "linear", "dim": 2})):
        save_tree_json(data / f"tree_{name}.json", tree, prior)
        doc = {"tree": {"file": str(data / f"tree_{name}.json")}, "prior": {"scheme": "file"},
               "horizon": 200, "instances": 20, "seed": 4, **extra}
        configs.append(data / f"tree_file_{name}.json")
        configs[-1].write_text(json.dumps(doc))
    return configs


def sized_draw(state, seed: int, size: int = 3) -> np.ndarray:
    """hierts_sample(state, rng, size) from default_rng(seed); SystemExit unless it equals size draws without a
    size in a row from an identically seeded generator."""
    theta, rng = hierts_sample(state, np.random.default_rng(seed), size), np.random.default_rng(seed)
    if not all(row.tobytes() == hierts_sample(state, rng).tobytes() for row in theta):
        raise SystemExit(f"a draw of size {size} differs from {size} draws without a size")
    return theta


def lockstep_draw(tree, prior, updates: list) -> None:
    """SystemExit unless every column of a 3-column LockstepDraw equals the bytes of the draw that its state
    would make alone. State j takes every third of updates from the j-th, half before the cell is built and half
    after, through its write-through; its twin takes the same updates alone."""
    shares = [updates[j::3] for j in range(3)]
    states, twins = [PosteriorState(tree, prior) for _ in range(3)], [PosteriorState(tree, prior) for _ in range(3)]
    for state, twin, share in zip(states, twins, shares):
        for leaf, y in share[: len(share) // 2]:
            state.update_path(leaf, y)
    cell = posterior.LockstepDraw(states)
    for state, twin, share in zip(states, twins, shares):
        for leaf, y in share[len(share) // 2 :]:
            state.update_path(leaf, y)
        for leaf, y in share:
            twin.update_path(leaf, y)
    z = np.stack([np.random.default_rng(20 + j).standard_normal(tree.num_nodes) for j in range(3)], axis=1)
    theta = cell.draw(z)
    for j, twin in enumerate(twins):
        if theta[:, j].tobytes() != hierts_sample(twin, np.random.default_rng(20 + j)).tobytes():
            raise SystemExit(f"column {j} of a lockstep draw differs from its state's own draw")


def write_draws(root: Path) -> None:
    """Raw draws, one file per tree and route, after 60 updates from fixed seeds. The level loop's draw is
    the one column of a LockstepDraw whose state joins it before the recorded updates are replayed on it."""
    rng = np.random.default_rng(11)
    trees = {"b2h3": balanced_tree(2, 3), "b16h2": balanced_tree(16, 2), "random": random_tree(rng),
             "b2h5": balanced_tree(2, 5)}
    for name, tree in trees.items():
        scalar = PosteriorState(tree, random_scalar_prior(rng, tree))
        linear = LinearPosteriorState(tree, random_linear_prior(rng, tree, 3))
        updates = []
        for _ in range(60):
            leaf, x, y = int(rng.choice(tree.action_nodes)), rng.standard_normal(3), float(rng.normal(0.0, 2.0))
            scalar.update_path(leaf, y)
            linear.update_path(leaf, y, x)
            updates.append((leaf, y))
        cell = posterior.LockstepDraw([PosteriorState(tree, scalar.prior)])
        for leaf, y in updates:
            cell.states[0].update_path(leaf, y)
        routes = {"scalar-float": hierts_sample(scalar, np.random.default_rng(1)),
                  "scalar-levels": cell.draw(np.random.default_rng(1).standard_normal((tree.num_nodes, 1)))[:, 0]}
        if routes["scalar-float"].tobytes() != routes["scalar-levels"].tobytes():
            raise SystemExit(f"{name}: a one-column lockstep draw differs from the float draw")
        routes["scalar-size3"] = sized_draw(scalar, 2)
        lockstep_draw(tree, scalar.prior, updates)
        routes["linear"] = hierts_sample(linear, np.random.default_rng(3))
        routes["linear-size3"] = sized_draw(linear, 4)
        (root / name).mkdir(parents=True)
        for route, theta in routes.items():
            (root / name / f"{route}.bin").write_bytes(theta.tobytes())


def write_fitted_d10(root: Path) -> None:
    """Raw linear draws, fold caches and TS arm moments at d=10, after 200 updates on the fitted cluster tree."""
    rng = np.random.default_rng(13)
    dataset, tree, _ = make_cluster_dataset(rng, num_groups=5, classes_per_group=5, dim=10)
    prior, theta, _ = fit_priors_from_data(dataset, tree, noise_std=0.5)
    contexts = dataset.features[~dataset.is_train]
    state, ts = LinearPosteriorState(tree, prior), TSAgent(tree, prior, np.random.default_rng(5))
    for _ in range(200):
        leaf, x = int(rng.choice(tree.action_nodes)), contexts[rng.integers(contexts.shape[0])]
        y = float(x @ theta[leaf] + prior.noise_std * rng.standard_normal())
        state.update_path(leaf, y, x)
        ts.update(leaf, y, x)
    arrays = {"linear": hierts_sample(state, np.random.default_rng(3)), "linear-size3": sized_draw(state, 4)}
    for name in ("post_cov", "post_factor", "slope", "intercept", "msg_prec", "msg_wmean"):
        arrays[f"state-{name}"] = getattr(state, name)
    for name in ("mean", "cov", "factor"):
        arrays[f"ts-{name}"] = getattr(ts, name)
    (root / "fitted-d10").mkdir(parents=True)
    for name, a in arrays.items():
        (root / "fitted-d10" / f"{name}.bin").write_bytes(a.tobytes())


def commands(data: Path, runs: Path) -> list[list[str]]:
    out = []
    tree_file_configs = write_tree_file_configs(data)
    for jobs in JOBS:
        j = ["--jobs", str(jobs)]
        for config in [CONFIGS / f"{name}.json" for name in SIMULATE] + tree_file_configs:
            out.append(["simulate", "--config", str(config),
                        "--out", str(runs / f"simulate-{config.stem}-j{jobs}")] + j)
        out.append(["ratio", "--config", str(CONFIGS / "ratio_constant_b2.json"),
                    "--out", str(runs / f"ratio-constant_b2-j{jobs}")] + j)
        out.append(["classify-bandit", "--dataset", str(data / "data.csv"),
                    "--hierarchy", str(data / "tree.json"), "--horizon", "1000", "--runs", "6",
                    "--out", str(runs / f"classify-cluster_d6-j{jobs}")] + j)
    for name in BOUND:
        out.append(["bound", "--config", str(CONFIGS / f"{name}.json"),
                    "--out", str(runs / f"bound-{name}")])
    return out


def run(argv: list[str]) -> None:
    """Run one hierts command in-process; SystemExit unless it exits 0."""
    print(" ".join(["hierts"] + argv), flush=True)
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"exit code {code}")


def manifest(root: Path) -> list[str]:
    """`sha256  path` lines of every file under root, sorted by path, with paths relative to root."""
    paths = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((root / p).read_bytes()).hexdigest()}  {p.as_posix()}" for p in paths]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="new or empty directory for the runs and MANIFEST")
    args = ap.parse_args()
    root = Path(args.out).resolve()
    if root.exists() and any(root.iterdir()):
        raise SystemExit(f"{root} is not empty")
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    data, runs = Path("dataset"), Path("runs")
    data.mkdir()
    dataset, hierarchy, label_map = make_cluster_dataset(
        np.random.default_rng(7), num_groups=5, classes_per_group=5, dim=6
    )
    write_dataset_csv(data / "data.csv", dataset, label_map)
    save_tree_json(data / "tree.json", hierarchy, label_map=label_map)
    write_draws(Path("draws"))
    write_fitted_d10(Path("draws"))
    for argv in commands(data, runs):
        run(argv)
    for seed in VERIFY_SEEDS:
        argv = ["verify-oracle", "--seed", str(seed)]
        print(" ".join(["hierts"] + argv), flush=True)
        report = runs / f"verify-oracle-seed{seed}"
        report.mkdir()
        with open(report / "stdout.txt", "w") as f, contextlib.redirect_stdout(f):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"exit code {code}")
    outputs = []
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file() and p.name != "replay.json"):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("config", None)
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        outputs.append(f"{hashlib.sha256(data).hexdigest()}  {path.as_posix()}")
    for name, lines in (("MANIFEST", manifest(root)), ("OUTPUTS", outputs)):
        Path(name).write_text("\n".join(lines) + "\n")
        print(f"wrote {root / name} ({len(lines)} files)")


if __name__ == "__main__":
    main()
