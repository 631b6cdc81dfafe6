"""Fixed bursts of work whose timings scale measured times to a reference speed.

On a shared machine whose speed drifts over minutes, a time divided by the
time of a burst run next to it, and multiplied by the burst's reference
time, cancels the drift that both see. The REFERENCE_* constants are the
bursts' wall times at the reference speed; they only fix the unit of the
scaled times and must never change.

calibration_s() matches the ops (interpreter overhead, tiny numpy calls and
small LAPACK solves); exec_burst_s() matches module import (running module
bodies that define classes and functions) and imports nothing itself.
"""
from __future__ import annotations

import math
import time

REFERENCE_CAL_S = 0.012
REFERENCE_EXEC_S = 0.010

_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    x = {i}\n"
    f"    def __init__(self, a, b=2):\n        self.a = a\n        self.b = b\n"
    f"    def f(self, y):\n        return [self.a * y + k for k in range(3)]\n"
    f"    @property\n    def p(self):\n        return self.a + {i}\n"
    f"def g{i}(a, *args, key=None, **kw):\n    return {{'a': a, 'n': len(args), 'k': key}}\n"
    f"T{i} = tuple(range({i % 7}))\n"
    f"D{i} = {{str(k): k for k in range({i % 11})}}\n"
    for i in range(150))
_CODE = compile(_SOURCE, "<exec-burst>", "exec")


def calibration_s() -> float:
    """Best of two timings of a fixed burst of small numpy calls from Python."""
    import numpy as np

    a = np.eye(10) * 2.0 + 0.1
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        x = np.zeros(64)
        for i in range(1500):
            x += rng.standard_normal(64)
            int(np.argmax(x))
            if i % 8 == 0:
                np.linalg.solve(a, x[:10])
        best = min(best, time.perf_counter() - t0)
    return best


def exec_burst_s() -> float:
    """Best of three timings of running a fixed module body four times."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(4):
            exec(_CODE, {"__name__": "exec_burst"})
        best = min(best, time.perf_counter() - t0)
    return best
