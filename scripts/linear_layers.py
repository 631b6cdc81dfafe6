#!/usr/bin/env python3
"""Time the linear model's per-round layers in microseconds per call.

On the 5 x 5 cluster tree at d = 10 (make_cluster_dataset with seed --seed, the prior fitted as classify-bandit
fits it, noise_std 0.5), it builds one fixed sequence of --updates (leaf, reward, context) triples: uniform leaves,
test-split rows as contexts, rewards x @ theta* + noise. Each repeat then times, on fresh objects:
- `LinearPosteriorState.update_path` over the whole sequence;
- `LinearPosteriorState.draw`, --updates calls on the state those updates left;
- the linear `TSAgent.update` over the same sequence;
and the script prints, per layer, the minimum over --repeats of the mean time per call. Run from the repository
root:

    PYTHONPATH=src python3 scripts/linear_layers.py [--seed 0] [--updates 200] [--repeats 10]
"""
import argparse
import time

import numpy as np

from hierts import LinearPosteriorState, TSAgent, fit_priors_from_data, make_cluster_dataset


def updates(seed: int, count: int):
    """(tree, prior, [(leaf, reward, context), ...]) on the fitted d = 10 cluster tree."""
    dataset, tree, _ = make_cluster_dataset(np.random.default_rng(seed), num_groups=5, classes_per_group=5, dim=10)
    prior, theta_star, _ = fit_priors_from_data(dataset, tree, noise_std=0.5)
    rng = np.random.default_rng(seed + 1)
    contexts = dataset.features[~dataset.is_train]
    seq = []
    for _ in range(count):
        leaf = int(rng.choice(tree.action_nodes))
        x = contexts[rng.integers(contexts.shape[0])]
        seq.append((leaf, float(x @ theta_star[leaf] + prior.noise_std * rng.standard_normal()), x))
    return tree, prior, seq


def per_call_us(fn, calls: int) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / calls * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--updates", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args()
    tree, prior, seq = updates(args.seed, args.updates)
    times = {"update_path": [], "draw": [], "ts_update": []}
    for _ in range(args.repeats):
        state = LinearPosteriorState(tree, prior)

        def update_path():
            for leaf, reward, x in seq:
                state.update_path(leaf, reward, x)

        times["update_path"].append(per_call_us(update_path, len(seq)))
        rng = np.random.default_rng(args.seed)
        times["draw"].append(per_call_us(lambda: [state.draw(rng) for _ in seq], len(seq)))
        agent = TSAgent(tree, prior, np.random.default_rng(args.seed))

        def ts_update():
            for leaf, reward, x in seq:
                agent.update(leaf, reward, x)

        times["ts_update"].append(per_call_us(ts_update, len(seq)))
    print("layer,us_per_call")
    for layer, values in times.items():
        print(f"{layer},{min(values):.2f}")


if __name__ == "__main__":
    main()
