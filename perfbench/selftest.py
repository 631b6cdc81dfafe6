#!/usr/bin/env python3
"""Negative test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs a few tiny `simulate` ops through the same op runner and gate as the
benchmark and shows that each fault trips it: corrupted output rows and an
op that raises raise failed_frac (and lower ok_frac), and pooled results
away from the reference, or with HierTS not below TS, fail the run-level
check. Exits 0 when every fault is caught, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run
from workloads import SimulateDeep


class TinySimulate(SimulateDeep):
    name = "selftest"
    instances = 2
    horizon = 30
    rounds_per_op = instances * horizon * 3
    ordering_check = False  # too short a horizon for HierTS to pull ahead

    def prepare(self, seed: int, inputs: Path) -> None:
        doc = {"tree": {"b": 2, "h": 2}, "prior": {"scheme": "doubling"}, "noise_std": 1.0,
               "horizon": self.horizon, "instances": self.instances, "seed": 0}
        (inputs / "simulate.json").write_text(json.dumps(doc))


def _edit_csv(out: Path, edit) -> None:
    path = out / "regret.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _set_field(lines: list[str], row: int, col: int, value: str) -> None:
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)


CORRUPTIONS = {
    "decreasing mean_regret": lambda out: _edit_csv(out, lambda ls: _set_field(ls, 20, 2, "0")),
    "non-finite value": lambda out: _edit_csv(out, lambda ls: _set_field(ls, 5, 3, "nan")),
    "negative se": lambda out: _edit_csv(out, lambda ls: _set_field(ls, 7, 3, "-0.5")),
    "missing row": lambda out: _edit_csv(out, lambda ls: ls.pop()),
    "final row differs from summary": lambda out: _edit_csv(
        out, lambda ls: _set_field(ls, len(ls) - 1, 2, str(float(ls[-1].split(",")[2]) * 2))),
    "missing chart": lambda out: (out / "regret.svg").unlink(),
}


def main() -> int:
    cli = run.import_program()
    from hierts import ConditioningError, harness

    wl = TinySimulate()
    work = run.ROOT / ".bench_work" / "selftest"
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        wl.prepare(0, inputs)
        clean = [run.run_op(cli, wl, inputs, work, i, f"t/{i}", i) for i in range(6)]
        expect(run.failed_frac(clean) == 0, "clean ops pass the output gate")
        table = {op.key: {"digest": op.digest, "values": op.values} for op in clean}
        expect(not run.pooled_check(wl, clean, table)[0], "clean ops pass the pooled check")

        bad_ops = []
        original_main = cli.main
        for label, corrupt in CORRUPTIONS.items():
            def corrupting(argv, corrupt=corrupt):
                rc = original_main(argv)
                corrupt(Path(argv[argv.index("--out") + 1]))
                return rc

            cli.main = corrupting
            try:
                op = run.run_op(cli, wl, inputs, work, 100, "t/0", 0)
            finally:
                cli.main = original_main
            expect(bool(op.problems), f"{label} fails the op: {op.problems[:1]}")
            bad_ops.append(op)

        def raising(*args, **kwargs):
            raise ConditioningError("injected singular solve")

        original_make = harness.make_agent
        harness.make_agent = raising
        try:
            op = run.run_op(cli, wl, inputs, work, 101, "t/0", 0)
        finally:
            harness.make_agent = original_make
        expect(any("ConditioningError" in p for p in op.problems), f"an op that raises fails: {op.problems[:1]}")
        bad_ops.append(op)

        ops = clean + bad_ops
        probe = {"scaled_s": 0.1, "import_s": 0.05, "setup_s": 0.05, "numpy_import_s": 0.1}
        metrics, _ = run.end_to_end(wl, ops, [probe])
        frac = run.failed_frac(ops)
        expect(frac == len(bad_ops) / len(ops), f"failed_frac counts every failed op ({frac:.3f})")
        expect(metrics["ok_frac"][0] == 1.0 - frac, f"ok_frac drops to {metrics['ok_frac'][0]:.3f}")

        shifted = {k: {"digest": v["digest"], "values": {q: x + 1000.0 for q, x in v["values"].items()}}
                   for k, v in table.items()}
        problems, _ = run.pooled_check(wl, clean, shifted)
        expect(any("SE from reference" in p for p in problems),
               f"pooled regret far from the reference fails: {problems[:1]}")

        behind = [dataclasses.replace(op, values={**op.values, "HierTS": op.values["TS"] + 1.0})
                  for op in clean]
        behind_table = {op.key: {"digest": op.digest, "values": op.values} for op in behind}
        problems, _ = run.pooled_check(SimulateDeep(), behind, behind_table)
        expect(any("not below TS" in p for p in problems), f"HierTS not below TS fails: {problems[:1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if not failures else f"selftest FAILED: {failures}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
