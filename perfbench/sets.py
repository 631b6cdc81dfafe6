#!/usr/bin/env python3
"""Make and compare sets of benchmark runs.

A set is a JSON-lines file with one record per run, each carrying at least
`workload`, `seed` and `result` (the object `run.py` prints last).

    python3 perfbench/sets.py sweep --seeds 0-9 --out .bench_out/set-a.jsonl
    python3 perfbench/sets.py spread .bench_out/set-a.jsonl
    python3 perfbench/sets.py compare .bench_out/set-a.jsonl .bench_out/set-b.jsonl

`sweep` runs `run.py` once per workload and seed, in a child process each,
with `run_seconds` from BENCHMARK.json. `spread` prints each end-to-end
metric's quartile spread as a share of its median, against its bound.
`compare` prints, per workload and end-to-end metric, both sets' medians
and quartiles, the ratio of medians and a verdict by the benchmark's bounds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_set(path: str) -> dict[str, list[tuple[int, dict]]]:
    """workload -> [(seed, end-to-end metrics)] for the untraced runs of a set."""
    out: dict[str, list[tuple[int, dict]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if int(rec.get("trace", 0)) != 0:
            continue
        out.setdefault(rec["workload"], []).append((int(rec["seed"]), rec["result"]["metrics"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: list[tuple[int, float]], b: list[tuple[int, float]], bound: float, better: str) -> str:
    """better / worse / unresolved / within-bound for set b against set a.

    worse: b's median is worse than a's by more than the bound. better: b
    wins at least 9 in 10 of the seed-paired runs (ties count for neither)
    and the medians differ by more than a's quartile spread. A spread wider
    than the bound makes the result unresolved unless every run of b beats,
    or loses to, every run of a; that clause only lifts "unresolved" and
    decides nothing by itself. Verdicts hold only for sets whose runs
    alternate which side runs first; back-to-back sets see the machine's
    drift as a difference.
    """
    sign = 1.0 if better == "lower" else -1.0
    va, vb = [v for _, v in a], [v for _, v in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    worse_by = sign * (mb - ma) / abs(ma)
    separated = (all(sign * (x - y) < 0 for x in vb for y in va)
                 or all(sign * (x - y) > 0 for x in vb for y in va))
    if max(spread(va), spread(vb)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    by_seed = dict(a)
    pairs = [(by_seed[s], v) for s, v in b if s in by_seed]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread(va):
        return "better"
    return "within-bound"


def compare(path_a: str, path_b: str) -> int:
    metrics = spec()["end_to_end"]
    set_a, set_b = load_set(path_a), load_set(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':14} {'metric':20} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'B/A':>7}  verdict (bound)")
    for workload in sorted(set(set_a) & set(set_b)):
        for m in metrics:
            a = [(s, r[m["name"]]["value"]) for s, r in set_a[workload]]
            b = [(s, r[m["name"]]["value"]) for s, r in set_b[workload]]
            qa, qb = quartiles([v for _, v in a]), quartiles([v for _, v in b])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload:14} {m['name']:20} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(70)
                  + f"{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(36)
                  + f"{ratio:>7.4f}  {verdict(a, b, m['bound'], m['better'])} ({m['bound']:g}, {m['better']})")
    return 0


def spread_report(path: str) -> int:
    metrics = spec()["end_to_end"]
    runs = load_set(path)
    steady = True
    for workload in sorted(runs):
        for m in metrics:
            values = [r[m["name"]]["value"] for _, r in runs[workload]]
            s = spread(values)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"{workload:14} {m['name']:20} n={len(values):2} median {statistics.median(values):<12.6g} "
                  f"spread {s:.4f} (bound {m['bound']:g}, a third {m['bound'] / 3:.4f}) {'ok' if ok else 'HIGH'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(seeds: list[int], workloads: list[str], trace: int, out: Path) -> int:
    cfg = spec()
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            with out.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "result": result}) + "\n")
            shown = ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
            status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("--seeds", default="0-9")
    sw.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    sw.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sw.add_argument("--out", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("set")
    cp = sub.add_parser("compare")
    cp.add_argument("a")
    cp.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "sweep":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec()["workloads"]]
        return sweep(parse_seeds(args.seeds), names, args.trace, Path(args.out))
    if args.cmd == "spread":
        return spread_report(args.set)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
