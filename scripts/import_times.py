#!/usr/bin/env python3
"""Time the imports one Python statement makes, per hierts module, in fresh interpreters.

Runs STATEMENT in --repeat fresh interpreters under `-X importtime` and prints, as CSV, the median self and
cumulative import time in microseconds of each hierts module it loads, and of each standard-library module that a
hierts module's import pulls in (first loaded beneath it, through standard-library modules only), with that hierts
module in the `under` column. A last row totals the listed self times. The interpreters inherit this environment,
PYTHONPATH included, so with PYTHONDONTWRITEBYTECODE set and no __pycache__ under src every module is compiled, as
in a fresh checkout that writes no bytecode. `-X importtime` does not time a module that importlib.import_module
loads, as the package's lazy names (`from hierts import make_agent`) do, only the imports beneath it; so name the
modules to time in import statements (`import hierts.config`). Run from the repository root:

    PYTHONPATH=src python3 scripts/import_times.py [--repeat 5] "import hierts.cli"
"""
import argparse
import statistics
import subprocess
import sys


def _stdlib(name: str) -> bool:
    return name.partition(".")[0] in sys.stdlib_module_names


def parse(stderr: str) -> list[tuple[str, str, int, int]]:
    """(module, the hierts module above it or "", self_us, cumulative_us) of each hierts module and of each
    standard-library module that a hierts module's import pulls in, through standard-library modules only, in the
    order `-X importtime` prints them (a module after those it imports)."""
    entries, pending = [], []  # pending: (depth, index) of the entries whose importer is not printed yet
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line.removeprefix("import time:").split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append([name.strip(), None, int(self_us), int(cumulative_us)])
        while pending and pending[-1][0] > depth:
            entries[pending.pop()[1]][1] = len(entries) - 1
        pending.append((depth, len(entries) - 1))

    def importer(i: int) -> str:
        """The nearest hierts module above entry i, if only standard-library modules lie between."""
        while (i := entries[i][1]) is not None:
            name = entries[i][0]
            if name.startswith("hierts") or not _stdlib(name):
                return name if name.startswith("hierts") else ""
        return ""

    rows = []
    for i, (name, _, self_us, cumulative_us) in enumerate(entries):
        above = importer(i)
        if name.startswith("hierts") or (above and _stdlib(name)):
            rows.append((name, above, self_us, cumulative_us))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("statement")
    ap.add_argument("--repeat", type=int, default=5, help="fresh interpreters; each time is their median")
    args = ap.parse_args()
    runs = []
    for _ in range(args.repeat):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", args.statement], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(proc.stderr.strip().splitlines()[-1])
        runs.append(parse(proc.stderr))
    times = [{name: (self_us, cumulative_us) for name, _, self_us, cumulative_us in run} for run in runs]
    print("module,under,self_us,cumulative_us")
    total = 0
    for name, above, *_ in runs[0]:
        self_us, cumulative_us = (statistics.median(run[name][k] for run in times if name in run) for k in (0, 1))
        total += self_us
        print(f"{name},{above},{self_us},{cumulative_us}")
    print(f"total,,{total},")


if __name__ == "__main__":
    main()
