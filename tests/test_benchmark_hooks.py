"""The traced benchmark wraps package functions by name; they must still resolve."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.patch_package(spans.SpanRecorder())  # AttributeError if a wrapped name is gone
