"""The benchmark's traced run finds every function it names in maslovlab.

``bench/spans.py`` wraps the public functions of each layer by name. A
name that no longer resolves is skipped there, and its per-layer metric
then reads zero; this test makes such a rename or removal fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_traced_run_spans_every_operator_of_a_path():
    """``bvp.operator`` wraps the per-s builder that ``bvp._assembler`` returns.

    The s-independent part of a path is built inside ``_assembler``,
    once, so the span counts exactly the per-s assemblies: one per
    sample, for either realization.
    """
    from maslovlab import bvp
    from maslovlab.frames import Frame

    spans = _spans_module()
    fam = bvp.HamiltonianFamily(2, np.array([[0.0, -1.0], [1.0, 0.0]]), lambda s, t: s * np.eye(2))
    conditions = {
        "fold": bvp.periodic_condition(fam),
        "sbp": bvp.separated_condition(
            fam, Frame.span([1.0, 0.0]), Frame.span([np.cos(0.5), np.sin(0.5)])
        ),
    }
    for realization, bc in conditions.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            # Looked up after install, as the traced run finds it.
            bvp.discretize(fam, bc, 64, 9)
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        assert tracer.calls["bvp.operator"] == 9, realization
        assert tracer.calls["bvp.discretize"] == 1, realization
