#!/usr/bin/env python3
"""Time a k-armed cell's simulation loop per agent and in lockstep, to place LOCKSTEP_MIN_INSTANCES.

For each tree (b=2 at the given heights, doubling prior) and each instance count M, it builds one cell's
tasks as run_bayes_regret does, then times `harness._cell_runs` on all of them (the three agent kinds, one
block, no instance cap) with `harness.LOCKSTEP_MIN_INSTANCES` patched to M + 1 (the per-agent loop) and to 1
(lockstep), interleaved, and prints the median time of each and their ratio (per agent / lockstep; above 1
means lockstep is faster). It stops unless both give the same regret bits. Run from the repository root:

    PYTHONPATH=src python3 scripts/lockstep_crossover.py [--heights 1 2 3 8] [--instances 2 3 4 16 100]
"""
import argparse
import statistics
import time

import numpy as np

from hierts import AGENT_KINDS, balanced_tree, doubling_prior, harness, sample_instance


def cell_tasks(height: int, instances: int, horizon: int, seed: int = 0) -> list[tuple]:
    tree = balanced_tree(2, height)
    prior = doubling_prior(tree, 1.0)
    tasks = []
    for run in range(instances):
        instance = sample_instance(tree, prior, harness._instance_rng(seed, run, harness._STREAM_INSTANCE))
        tasks.append((run, seed, tree, prior, horizon, AGENT_KINDS, instance.leaf_parameters(), None))
    return tasks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--heights", type=int, nargs="+", default=[1, 2, 3, 8])
    ap.add_argument("--instances", type=int, nargs="+", default=[2, 3, 4, 16, 100])
    ap.add_argument("--horizon", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=7, help="interleaved timings of each loop")
    args = ap.parse_args()
    print("h,M,per_agent_s,lockstep_s,ratio")
    for h in args.heights:
        for m in args.instances:
            tasks = cell_tasks(h, m, args.horizon)
            times, runs = ([], []), [None, None]  # per agent, lockstep
            for rep in range(args.repeats):
                for loop in (0, 1) if rep % 2 else (1, 0):  # alternate which loop runs first
                    harness.LOCKSTEP_MIN_INSTANCES = 1 if loop else m + 1
                    t0 = time.perf_counter()
                    runs[loop] = harness._cell_runs(tasks)
                    times[loop].append(time.perf_counter() - t0)
                if not all(np.array_equal(a[k], b[k]) for a, b in zip(*runs) for k in AGENT_KINDS):
                    raise SystemExit(f"h={h} M={m}: lockstep regret differs from the per-agent loop")
            a, b = map(statistics.median, times)
            print(f"{h},{m},{a:.4f},{b:.4f},{a / b:.3f}", flush=True)


if __name__ == "__main__":
    main()
