#!/usr/bin/env python3
"""Benchmark for the hierts package.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload ratio-small --seed 0 --seconds 20 --trace 0

Workloads are `ratio-small`, `simulate-deep` and `classify-d10`; each op is
one `hierts` command run in-process through `hierts.cli.main`. With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run
that alternates untraced and traced ops. Human-readable lines come before
it, and a fuller record (provenance, checks, the sampling-scaling table) is
appended to `.bench_out/results.jsonl`.

Other modes:

    python3 perfbench/run.py --record               # rewrite perfbench/reference.json

`perfbench/sets.py` makes and compares sets of runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_CAL_S, REFERENCE_EXEC_S, calibration_s, exec_burst_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 11  # fresh set-up processes per run, spread over the op window
WINDOW_CAP_S = 120.0  # a run stops timing here even if min_ops is not reached
POOLED_SE = 4.0
SPOT_OBS = 40
SPOT_HIERTS_DRAWS = 200
SPOT_ORACLE_DRAWS = 50
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Put the checkout's src/ first on sys.path and import hierts.cli.

    Exits with code 2 when the checkout holds no package source, so that a
    directory with only the benchmark files prints no result.
    """
    if not (SRC / "hierts" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hierts'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from hierts import cli

    return cli


@dataclass
class Op:
    key: str
    seconds: float
    traced: bool
    warmup: bool
    problems: list[str]
    values: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    extras: dict = field(default_factory=dict)
    cal_before: float = REFERENCE_CAL_S  # calibration_s() right before the op
    cal_after: float | None = None  # and right after it, when known

    @property
    def speed(self) -> float:
        """Machine speed during the op relative to the reference speed."""
        after = self.cal_before if self.cal_after is None else self.cal_after
        return 2.0 * REFERENCE_CAL_S / (self.cal_before + after)

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.speed


def run_op(cli, wl, inputs: Path, work: Path, index: int, key: str, op_seed: int,
           rec=None, warmup: bool = False) -> Op:
    """Time one command (after a calibration burst), then gate its outputs."""
    cal_before = calibration_s()
    out = work / f"op{index}"
    argv = wl.argv(inputs, out, op_seed)
    problems: list[str] = []
    rc = None
    if rec is not None:
        rec.current_op = index
        rec.install()
    t0 = time.perf_counter()
    try:
        rc = rec.call("cli.main", cli.main, argv) if rec is not None else cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.uninstall()
    if rc not in (0, None):
        problems.append(f"exit code {rc}")
    op = Op(key, elapsed, rec is not None, warmup, problems, cal_before=cal_before)
    if not problems:
        try:
            found, op.values, op.digest, op.extras = wl.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems.extend(found)
    shutil.rmtree(out, ignore_errors=True)
    return op


def failed_frac(ops: list[Op]) -> float:
    return sum(1 for op in ops if op.problems) / max(len(ops), 1)


def pooled_check(wl, ops: list[Op], table: dict) -> tuple[list[str], list[dict]]:
    """Run-level checks over the ops that passed the per-op gate.

    Each pooled quantity must lie within POOLED_SE standard errors of the
    reference pooled over the same op seeds; where the workload asks for it,
    HierTS must also end below TS.
    """
    good = [op for op in ops if not op.problems]
    if not good:
        return ["no op passed the output gate"], []
    unknown = sorted({op.key for op in good if op.key not in table})
    if unknown:
        return [f"no reference for ops {unknown[:5]}"], []
    problems, rows = [], []
    k = len(good)
    for q in sorted(good[0].values):
        run = [op.values[q] for op in good]
        ref = [table[op.key]["values"][q] for op in good]
        m_run, m_ref = statistics.fmean(run), statistics.fmean(ref)
        se = math.sqrt((statistics.variance(run) + statistics.variance(ref)) / k) if k > 1 else 0.0
        limit = POOLED_SE * se + 1e-9 * max(1.0, abs(m_ref))
        rows.append({"quantity": q, "mean": m_run, "reference": m_ref, "se": se})
        if abs(m_run - m_ref) > limit:
            problems.append(f"pooled {q} {m_run:.6g} is more than {POOLED_SE:g} SE from reference {m_ref:.6g}")
    if wl.ordering_check:
        means = {r["quantity"]: r["mean"] for r in rows}
        if not means["HierTS"] < means["TS"]:
            problems.append(f"pooled HierTS regret {means['HierTS']:.6g} is not below TS {means['TS']:.6g}")
    return problems, rows


def oracle_spot_check(wl, seed: int, inputs: Path) -> list[dict]:
    """Untimed: HierTS marginals against the dense oracle, plus sampling cost."""
    import numpy as np

    from hierts import (HierTSAgent, action_marginals, condition, hierts_sample, joint_prior,
                        sample_action_values)

    rng = np.random.default_rng([seed, 7])
    rows = []
    for label, tree, prior in wl.spot_problems(seed, inputs):
        agent = HierTSAgent(tree, prior, np.random.default_rng(seed))
        observations = []
        for _ in range(SPOT_OBS):
            leaf = int(rng.choice(tree.action_nodes))
            reward = float(rng.normal(0.0, 2.0))
            if prior.is_scalar:
                observations.append((leaf, reward))
                agent.update(leaf, reward)
            else:
                x = rng.standard_normal(prior.dim)
                observations.append((leaf, x, reward))
                agent.update(leaf, reward, x)
        joint = joint_prior(tree, prior)
        t0 = time.perf_counter()
        post = condition(joint, observations, prior.noise_std**2)
        condition_s = time.perf_counter() - t0
        marginals = action_marginals(post)
        dev = 0.0
        for leaf in tree.action_nodes:
            mean, var = agent.marginal_action_moments(int(leaf))
            ref_mean, ref_var = marginals[int(leaf)]
            dev = max(dev,
                      float(np.abs(mean - ref_mean).max()) / max(float(np.abs(ref_mean).max()), 1.0),
                      float(np.abs(var - ref_var).max()) / max(float(np.abs(ref_var).max()), 1.0))
        t0 = time.perf_counter()
        for _ in range(SPOT_ORACLE_DRAWS):
            sample_action_values(post, rng)
        oracle_us = (time.perf_counter() - t0) / SPOT_ORACLE_DRAWS * 1e6
        t0 = time.perf_counter()
        for _ in range(SPOT_HIERTS_DRAWS):
            hierts_sample(agent.state, rng)
        hierts_us = (time.perf_counter() - t0) / SPOT_HIERTS_DRAWS * 1e6
        rows.append({"tree": label, "nodes": tree.num_nodes, "max_rel_dev": dev,
                     "condition_ms": condition_s * 1e3, "hierts_sample_us": hierts_us,
                     "oracle_sample_us": oracle_us})
    return rows


def setup_probe(wl, inputs: Path) -> dict:
    """One fresh process's set-up times (see setup_probe.py), with the scaled total.

    `import hierts` is scaled by exec_burst_s() around it, the set-up after
    it by calibration_s() after it, as op times are. numpy's own import is
    recorded but left out: it is not the program's, and its speed drifted
    apart from every calibration tried.
    """
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), wl.name, str(inputs)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["scaled_s"] = (probe["import_s"] * REFERENCE_EXEC_S / statistics.fmean(probe["exec_burst_s"])
                         + probe["setup_s"] * REFERENCE_CAL_S / probe["calibration_s"])
    return probe


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = None
    try:
        why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    except (OSError, ValueError, KeyError):
        why = {}
    return {
        "workload": workload,
        "seed": seed,
        "why": why.get(workload),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def op_time_metrics(wl, times: list[float]) -> dict:
    times = sorted(times)
    n = len(times)
    return {
        "agent_rounds_per_s": (wl.rounds_per_op * n / sum(times) if n else 0.0, "1/s"),
        "op_s_p50": (statistics.median(times) if n else 0.0, "s"),
        "op_s_tail": (percentile(times, wl.tail_pct) if n else 0.0, "s"),
    }


def end_to_end(wl, ops: list[Op], probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics, times in reference-speed seconds; raw times beside."""
    timed = [op for op in ops if not op.warmup and not op.problems]
    metrics = op_time_metrics(wl, [op.reference_seconds for op in timed])
    metrics["setup_s"] = (statistics.median(p["scaled_s"] for p in probes), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_frac"] = (1.0 - failed_frac(ops), "fraction")
    raw = op_time_metrics(wl, [op.seconds for op in timed])
    raw["setup_s"] = (statistics.median(p["import_s"] + p["setup_s"] for p in probes), "s")
    raw["numpy_import_s"] = (statistics.median(p["numpy_import_s"] for p in probes), "s")
    n = len(timed)
    info = {"tail_pct": wl.tail_pct, "tail_ops": n, "ops_beyond_tail": n * (100 - wl.tail_pct) / 100,
            "setup_probes": probes, "raw_wall_clock": {k: v for k, (v, _) in raw.items()},
            "speed_median": statistics.median(op.speed for op in ops),
            "op_s": [op.reference_seconds for op in timed], "op_raw_s": [op.seconds for op in timed]}
    return metrics, info


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def per_layer(wl, ops: list[Op], rec, spot: list[dict], table: dict) -> dict:
    from spans import AGENT_CLASSES, LINALG, SpanTable

    t = SpanTable(rec)
    kinds = [kind for _, kind in AGENT_CLASSES]
    traced = [op for op in ops if op.traced and not op.problems]
    plain = [op for op in ops if not op.traced and not op.warmup and not op.problems]
    rounds = wl.rounds_per_op * max(len(traced), 1)  # all traced ops failing reads 0, not a crash
    ms, us = 1e3, 1e6
    agent_updates = t.mask(*(f"agents.{k}.update" for k in kinds))
    linalg = t.mask(*(f"linalg.{fn}" for fn in LINALG))
    linalg_in_update = linalg & t.under(agent_updates)
    loop_self = t.total(("harness.run_bayes_regret", "harness.dataset_bandit_curve"), self_only=True)
    identical = sum(1 for op in ops if table.get(op.key, {}).get("digest") == op.digest)
    cli_self = t.mean("cli.main", ms, self_only=True)

    def rps(group):
        return wl.rounds_per_op * len(group) / sum(op.seconds for op in group) if group else 0.0

    m = {
        "harness.loop.self_us_per_round": (loop_self / rounds * us, "us"),
        "harness.write_regret_csv.ms": (t.mean("harness.write_regret_csv", ms), "ms"),
        "harness.complexity_term.ms": (t.mean("harness.complexity_term", ms), "ms"),
        "harness.identical_output_frac": (identical / len(ops), "fraction"),
        "agents.hierts_sample.us_per_call": (t.mean("agents.hierts_sample", us), "us"),
        "agents.hierts_sample.calls_per_round": (t.calls("agents.hierts_sample") / rounds, "count"),
    }
    for kind in kinds:
        for method in ("act", "update"):
            m[f"agents.{kind}.{method}.self_us"] = (t.mean(f"agents.{kind}.{method}", us, self_only=True), "us")
    m.update({
        "agents.make_agent.us_per_call": (t.mean("agents.make_agent", us), "us"),
        "posterior.update_path.us_per_call": (t.mean("posterior.update_path", us), "us"),
        "linear.update_path.self_us": (t.mean("linear.update_path", us, self_only=True), "us"),
        "linear.linalg_calls_per_update": (int(linalg_in_update.sum()) / rounds, "count"),
        "linear.linalg_us_per_update": (float(t.dur[linalg_in_update].sum()) / rounds * us, "us"),
        "envs.sample_instance.us_per_call": (t.mean("envs.sample_instance", us), "us"),
        "envs.load_feature_dataset.ms": (t.mean("envs.load_feature_dataset", ms), "ms"),
        "envs.fit_priors_from_data.ms": (t.mean("envs.fit_priors_from_data", ms), "ms"),
        "envs.floored_nodes": (max((op.extras.get("floored_nodes", 0) for op in ops), default=0), "count"),
        "hierarchy.flatten_hierarchy.us_per_call": (t.mean("hierarchy.flatten_hierarchy", us), "us"),
        "hierarchy.load_tree_json.ms": (t.mean("hierarchy.load_tree_json", ms), "ms"),
        "svgchart.write_line_chart.ms": (t.mean("svgchart.write_line_chart", ms), "ms"),
        "cli.main.self_ms": (cli_self, "ms"),
        "oracle.condition.ms": (statistics.fmean(r["condition_ms"] for r in spot), "ms"),
        "oracle.sample_action_values.us_per_call": (statistics.fmean(r["oracle_sample_us"] for r in spot), "us"),
        "oracle.max_rel_dev": (max(r["max_rel_dev"] for r in spot), "fraction"),
        "trace.overhead_frac": (1.0 - rps(traced) / rps(plain) if plain and traced else 0.0, "fraction"),
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    cli = import_program()
    from hierts.checks import ORACLE_RTOL

    table = load_reference().get(wl.name, {})
    work = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(seed, inputs)
        probes: list[dict] = []
        rec = None
        if trace:
            from spans import SpanRecorder, patch_package

            rec = SpanRecorder()
            patch_package(rec)
        sequence = wl.op_sequence(seed)
        key, op_seed = next(sequence)
        ops = [run_op(cli, wl, inputs, work, 0, key, op_seed, warmup=True)]
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            timed = len(ops) - 1
            enough = timed >= (6 if trace else wl.min_ops)
            if not trace and len(probes) < SETUP_PROBES and elapsed >= seconds * len(probes) / SETUP_PROBES:
                probes.append(setup_probe(wl, inputs))
                continue
            if elapsed >= WINDOW_CAP_S or (elapsed >= seconds and enough):
                break
            key, op_seed = next(sequence)
            traced = trace and timed % 2 == 1
            ops.append(run_op(cli, wl, inputs, work, len(ops), key, op_seed, rec if traced else None))
        window_s = time.perf_counter() - t_start
        for op, after in zip(ops, [op.cal_before for op in ops[1:]] + [calibration_s()]):
            op.cal_after = after
        e2e, info = end_to_end(wl, ops, probes) if not trace else ({}, {})
        pooled_problems, pooled_rows = pooled_check(wl, ops, table)
        spot = oracle_spot_check(wl, seed, inputs)
        spot_problems = [f"oracle deviation {r['max_rel_dev']:.3g} on {r['tree']} exceeds {ORACLE_RTOL:g}"
                         for r in spot if not r["max_rel_dev"] <= ORACLE_RTOL]
        metrics = per_layer(wl, ops, rec, spot, table) if trace else e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_problems = [f"{op.key}: {p}" for op in ops for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    correct = not op_problems and not pooled_problems and not spot_problems
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": seed, "trace": int(trace), "result": result,
        "provenance": provenance(wl.name, seed), "window_s": window_s, "end_to_end_info": info,
        "problems": (op_problems + pooled_problems + spot_problems)[:50], "pooled": pooled_rows,
        "sampling_scaling": spot,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with (out_dir / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    if rec is not None:
        rec.save(out_dir / f"spans-{wl.name}.npz")

    print(f"hierts benchmark: workload {wl.name}, seed {seed}, trace {int(trace)}, "
          f"{len(ops)} ops (1 warm-up) in a {window_s:.1f} s window; commit {record['provenance']['commit']}")
    print(f"  why: {record['provenance']['why']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed_frac(ops):.6g} ({failed} of {len(ops)} ops failed)")
    if not trace:
        print(f"  op_s_tail is p{info['tail_pct']} of {info['tail_ops']} timed ops "
              f"({info['ops_beyond_tail']:g} beyond it)")
        print(f"  times above are reference-speed seconds; machine speed factor {info['speed_median']:.4g}; "
              "raw wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in info["raw_wall_clock"].items()))
    for r in spot:
        print(f"  sampling on {r['tree']} ({r['nodes']} nodes): hierts_sample {r['hierts_sample_us']:.1f} us, "
              f"oracle.sample_action_values {r['oracle_sample_us']:.1f} us, oracle max rel dev {r['max_rel_dev']:.2e}")
    for p in record["problems"]:
        print(f"  FAILED CHECK: {p}")
    print(json.dumps(result))
    return 0


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return {}


def record_reference(names: list[str]) -> int:
    """Run every pool op of each workload once and store digests and values."""
    from workloads import WORKLOADS

    cli = import_program()
    machine = {k: v for k, v in provenance("", 0).items() if k not in ("workload", "seed", "why")}
    doc = {"recorded_with": machine, "workloads": load_reference()}
    for name in names:
        wl = WORKLOADS[name]
        table: dict = {}
        seeds = range(getattr(wl, "datasets", 1))
        for seed in seeds:
            work = ROOT / ".bench_work" / f"record-{name}-{seed}"
            inputs = work / "inputs"
            inputs.mkdir(parents=True, exist_ok=True)
            try:
                wl.prepare(seed, inputs)
                for i in range(wl.pool_size):
                    key = f"{wl.pool_key(seed)}/{i}"
                    op = run_op(cli, wl, inputs, work, i, key, i)
                    if op.problems:
                        print(f"error: {name} {key}: {op.problems}", file=sys.stderr)
                        return 1
                    table[key] = {"digest": op.digest, "values": op.values}
            finally:
                shutil.rmtree(work, ignore_errors=True)
        doc["workloads"][name] = table
        print(f"recorded {len(table)} ops for {name}")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json for --workload or all")
    args = ap.parse_args(argv)
    if args.record:
        return record_reference([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
