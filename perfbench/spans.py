"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent span, op id). Spans live in compact
`array` buffers while the run lasts and are written once at the end. The
wrappers are installed around the package's public functions and methods
where `hierts.cli`, `hierts.harness` and `hierts.agents` look them up, so no
code under `src/` changes; `uninstall` restores the originals, which lets a
traced run interleave untraced ops.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# Agent classes and the span-name prefix for their act/update methods.
AGENT_CLASSES = (("HierTSAgent", "HierTS"), ("FlatTSAgent", "FlatTS"), ("TSAgent", "TS"))
LINALG = ("solve", "eigvalsh", "cholesky", "inv")


class SpanRecorder:
    """Collects spans; parents are always recorded before their children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so that every call records one span."""
        nid = self._intern(name)
        name_id, op, parent, start, end = self.name_id, self.op, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            op.append(rec.current_op)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span named name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str) -> None:
        """Register owner.attr for wrapping; install() applies it."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(original, name)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, np.int32).copy(),
            "op": np.frombuffer(self.op, np.int32).copy(),
            "parent": np.frombuffer(self.parent, np.int32).copy(),
            "start": np.frombuffer(self.start, np.float64).copy(),
            "end": np.frombuffer(self.end, np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def patch_package(rec: SpanRecorder) -> None:
    """Register wrappers around the entry points of each package layer."""
    import numpy.linalg

    from hierts import agents, cli, harness, linear, posterior

    targets = [
        (cli, "run_bayes_regret", "harness.run_bayes_regret"),
        (cli, "dataset_bandit_curve", "harness.dataset_bandit_curve"),
        (cli, "ratio_experiment", "harness.ratio_experiment"),
        (cli, "write_regret_csv", "harness.write_regret_csv"),
        (cli, "complexity_term", "harness.complexity_term"),
        (cli, "load_tree_json", "hierarchy.load_tree_json"),
        (cli, "load_feature_dataset", "envs.load_feature_dataset"),
        (cli, "fit_priors_from_data", "envs.fit_priors_from_data"),
        (cli, "write_line_chart", "svgchart.write_line_chart"),
        # ratio_experiment reaches run_bayes_regret through the harness module.
        (harness, "run_bayes_regret", "harness.run_bayes_regret"),
        (harness.RunConfig, "resolve", "harness.resolve"),
    ]
    for owner, attr, name in targets:
        rec.patch(owner, attr, name)
    rec.patch(harness, "make_agent", "agents.make_agent")
    rec.patch(harness, "sample_instance", "envs.sample_instance")
    rec.patch(agents, "hierts_sample", "agents.hierts_sample")
    rec.patch(agents, "flatten_hierarchy", "hierarchy.flatten_hierarchy")
    for cls_name, kind in AGENT_CLASSES:
        cls = getattr(agents, cls_name)
        rec.patch(cls, "act", f"agents.{kind}.act")
        rec.patch(cls, "update", f"agents.{kind}.update")
    rec.patch(posterior.PosteriorState, "update_path", "posterior.update_path")
    rec.patch(linear.LinearPosteriorState, "update_path", "linear.update_path")
    for fn in LINALG:
        rec.patch(numpy.linalg, fn, f"linalg.{fn}")


class SpanTable:
    """Vectorized view of recorded spans with self times."""

    def __init__(self, rec: SpanRecorder) -> None:
        a = rec.arrays()
        self.names = rec.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        child = np.zeros(self.dur.size)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def under(self, inside: np.ndarray) -> np.ndarray:
        """Spans with an ancestor (or themselves) in the inside mask."""
        flag = inside.copy()
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            flag[live] |= inside[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return flag

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def mean(self, name: str, scale: float, self_only: bool = False) -> float:
        """Mean duration (or self time) per call, times scale; 0 with no calls."""
        m = self.mask(name)
        if not m.any():
            return 0.0
        times = self.self_time if self_only else self.dur
        return float(times[m].mean() * scale)

    def total(self, names: tuple[str, ...], self_only: bool = False) -> float:
        times = self.self_time if self_only else self.dur
        return float(times[self.mask(*names)].sum())
