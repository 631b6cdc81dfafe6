#!/usr/bin/env python3
"""Time a scalar posterior draw on each route, per tree, and check that every route gives the same bytes.

For each tree it builds PosteriorStates (random scalar prior, 60 recorded updates replayed on each) under
posterior.FLOAT_DRAW_NODES_PER_LEVEL = 10**9 (floats throughout), 0 (the level loop from the root) and the
default (the route the tree takes by itself), plus a 4-column posterior.LockstepDraw whose states share the
updates. It times a whole draw of each, interleaved over --repeats rounds of --number calls, the normal draw
included, and prints the minimum µs per call (per column for the lockstep cell). It stops unless the forced
routes and the chosen one give the same bytes and every lockstep column equals its state's own draw. Run from
the repository root:

    PYTHONPATH=src python3 scripts/draw_routes.py [--repeats 9] [--number 300]
"""
import argparse
import time

import numpy as np

from hierts import PosteriorState, balanced_tree, build_hierarchy, constant_prior, flatten_hierarchy, posterior
from hierts.checks import random_scalar_prior

COLUMNS = 4


def trees() -> dict:
    """The README's table of trees: balanced (b, h) trees and flat trees of 24 and 256 leaves."""
    out = {f"b={b} h={h}": balanced_tree(b, h) for b, h in ((2, 1), (2, 3), (2, 5), (2, 6), (2, 8), (3, 3), (3, 4),
                                                          (4, 3), (4, 4), (5, 2), (6, 2), (8, 3), (16, 2))}
    out["flat 24 leaves"] = build_hierarchy({v: 1 for v in range(2, 26)})
    b2h8 = out["b=2 h=8"]
    out["flat 256 leaves"] = flatten_hierarchy(b2h8, constant_prior(b2h8))[0]
    return out


def state(tree, prior, updates: list, nodes_per_level: int | None = None) -> PosteriorState:
    """A state built under FLOAT_DRAW_NODES_PER_LEVEL = nodes_per_level (the default when None), updates replayed."""
    saved = posterior.FLOAT_DRAW_NODES_PER_LEVEL
    posterior.FLOAT_DRAW_NODES_PER_LEVEL = saved if nodes_per_level is None else nodes_per_level
    try:
        out = PosteriorState(tree, prior)
    finally:
        posterior.FLOAT_DRAW_NODES_PER_LEVEL = saved
    for leaf, y in updates:
        out.update_path(leaf, y)
    return out


def check_bytes(name: str, states: dict, cell: posterior.LockstepDraw, twins: list) -> None:
    """SystemExit unless every single-state route draws the same bytes from one seed, and every lockstep column
    equals the own draw of a twin state that took its updates alone."""
    draws = {route: s.draw(np.random.default_rng(1)).tobytes() for route, s in states.items()}
    if len(set(draws.values())) != 1:
        raise SystemExit(f"{name}: the scalar draw differs between routes {sorted(draws)}")
    n = twins[0].hierarchy.num_nodes
    theta = cell.draw(np.stack([np.random.default_rng(2 + j).standard_normal(n) for j in range(COLUMNS)], axis=1))
    for j, twin in enumerate(twins):
        if theta[:, j].tobytes() != twin.draw(np.random.default_rng(2 + j)).tobytes():
            raise SystemExit(f"{name}: column {j} of a lockstep draw differs from its state's own draw")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=9, help="interleaved rounds; each route's minimum is printed")
    ap.add_argument("--number", type=int, default=300, help="calls per timing")
    args = ap.parse_args()
    print("tree,nodes,route,floats_us,levels_us,chosen_us,lockstep4_us")
    for name, tree in trees().items():
        rng = np.random.default_rng(7)
        prior = random_scalar_prior(rng, tree)
        updates = [(int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))) for _ in range(60)]
        states = {"floats": state(tree, prior, updates, 10**9), "levels": state(tree, prior, updates, 0),
                  "chosen": state(tree, prior, updates)}
        shares = [updates[j::COLUMNS] for j in range(COLUMNS)]
        cell = posterior.LockstepDraw([state(tree, prior, share) for share in shares])
        check_bytes(name, states, cell, [state(tree, prior, share) for share in shares])
        n, draw_rng = tree.num_nodes, np.random.default_rng(3)
        calls = {route: (lambda s=s: s.draw(draw_rng)) for route, s in states.items()}
        calls["lockstep"] = lambda: cell.draw(draw_rng.standard_normal((n, COLUMNS)))
        best = dict.fromkeys(calls, float("inf"))
        for rep in range(args.repeats):
            for route in list(calls)[rep % len(calls):] + list(calls)[: rep % len(calls)]:  # rotate the first route
                call = calls[route]
                t0 = time.perf_counter()
                for _ in range(args.number):
                    call()
                best[route] = min(best[route], (time.perf_counter() - t0) / args.number * 1e6)
        best["lockstep"] /= COLUMNS
        chosen = "floats" if states["chosen"].level_copies is None else "levels"
        print(f"{name},{n},{chosen}," + ",".join(f"{best[r]:.1f}" for r in calls), flush=True)


if __name__ == "__main__":
    main()
