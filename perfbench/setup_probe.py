"""Time `import hierts` and one workload's set-up in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <inputs dir>

The set-up is what a command does before its first round: config
resolution or tree, dataset and prior loading, then one make_agent per
agent kind. numpy is imported first and timed on its own, since it is not
the program's. `import hierts` runs between two timings of exec_burst_s(),
and calibration_s() runs after the set-up, so that the caller can scale each
part to the reference speed. Prints one JSON object as the last line.
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from calibrate import calibration_s, exec_burst_s

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    numpy_import_s = time.perf_counter() - t0
    exec_before = exec_burst_s()
    t0 = time.perf_counter()
    import hierts  # noqa: F401  (the import is part of what is timed)
    import_s = time.perf_counter() - t0
    exec_after = exec_burst_s()
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]))
    setup_s = time.perf_counter() - t0
    import json

    print(json.dumps({"numpy_import_s": numpy_import_s, "import_s": import_s, "setup_s": setup_s,
                      "exec_burst_s": [exec_before, exec_after], "calibration_s": calibration_s()}))


if __name__ == "__main__":
    main()
