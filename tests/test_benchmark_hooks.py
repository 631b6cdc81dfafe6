"""The traced benchmark wraps package functions by name; they must still resolve and see every call."""
import importlib.util
import json
from pathlib import Path

from hierts import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_span_hooks_resolve():
    spans = _load_spans()
    spans.patch_package(spans.SpanRecorder())  # AttributeError if a wrapped name is gone


def test_traced_simulate_counts_every_sample_and_update(tmp_path):
    """A fast path that bypasses the wrapped names would zero the per-layer metrics."""
    spans = _load_spans()
    horizon, instances = 20, 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tree": {"b": 2, "h": 2}, "prior": {"scheme": "doubling"},
        "horizon": horizon, "instances": instances, "seed": 3,
    }))
    rec = spans.SpanRecorder()
    spans.patch_package(rec)
    rec.install()
    try:
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "1"]
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        rec.uninstall()
    table = spans.SpanTable(rec)
    rounds = horizon * instances
    # each kind's act and update record spans of their own, once per round
    for kind in ("HierTS", "FlatTS", "TS"):
        assert table.calls(f"agents.{kind}.act") == table.calls(f"agents.{kind}.update") == rounds
    # HierTS and FlatTS each draw one tree sample and update one root path per round
    assert table.calls("agents.hierts_sample") == 2 * rounds
    assert table.calls("posterior.update_path") == 2 * rounds
    # both instances of the cell share one flat tree
    assert table.calls("hierarchy.flatten_hierarchy") == 1
