"""The benchmark's traced run finds every function it names in maslovlab.

``bench/spans.py`` wraps the public functions of each layer by name. A
name that no longer resolves is skipped there, and its per-layer metric
then reads zero; this test makes such a rename or removal fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_maslovlab():
    spans = _spans_module()
    modules = set(spans.TRACED) | {module for module, _ in spans._RETURNED}
    for module in modules:
        importlib.import_module(f"maslovlab.{module}")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
