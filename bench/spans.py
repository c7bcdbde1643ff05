"""Spans around the public functions of each maslovlab layer, for the traced run.

``Tracer.install`` wraps every function in ``TRACED``. A module-level
function is rebound in every ``maslovlab`` module namespace that holds
it, so calls between modules are seen too; a method or a constructor is
patched on its class. Each wrapper records a span (name, start, end,
parent span) in memory; ``write`` saves them when the run ends. Self
time is a span's duration minus the time its child spans cover.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, qualified name in that module). "Class.method" patches the
# class; "Class" traces the constructor.
TRACED = {
    "frames": ("orthonormalize", "intersect", "gap_hat", "morse_counts"),
    "symplectic": (
        "SymplecticForm", "splitting", "classify", "unitary_generator",
        "lagrangian_generators", "lagrangian_mask",
    ),
    "maslov": (
        "LagrangianPairPath", "LagrangianPairPath.evaluate", "maslov_winding",
        "maslov_crossings", "crossing_form", "diagonal_lift", "maslov_reduced",
    ),
    "reduction": (
        "pair_decomposition", "intrinsic_decomposition", "decomposition_from_parts",
        "reduced_pair", "graph_coefficients",
    ),
    "spectral": ("sf_eigen", "sf_relation", "eigenvalue_curves", "graph_relation"),
    "bvp": (
        "propagator", "cauchy_data", "discretize", "operator",
        "desuspension_check", "splitting_check",
    ),
    "cli": ("run_config",),
    "sampling": (
        "random_symplectic_form", "random_lagrangian", "lagrangian_rotation",
        "lagrangian_rotation.at",
    ),
}

# Callables that maslovlab builds and hands on: the discretized-operator
# callable comes out of bvp._assembler, the rotation out of
# sampling.lagrangian_rotation. Their spans are added by wrapping what
# the factory returns.
_RETURNED = {
    ("bvp", "_assembler"): "bvp.operator",
    ("sampling", "lagrangian_rotation"): "sampling.lagrangian_rotation.at",
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, functions in TRACED.items():
        for function in functions:
            names += [f"{module}.{function}.calls", f"{module}.{function}.self_s"]
        names.append(f"{module}.self_s")
    return names + ["maslov.evaluate_hit_ratio", "trace.overhead_s"]


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.evaluate_calls = 0
        self.evaluate_hits = 0
        self.callback_calls = 0
        self.missing: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span named ``name`` around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [len(self.span_start), 0.0]
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_start[frame[0]] = start
                self.span_end[frame[0]] = end
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            return on_result(result) if on_result else result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every maslovlab module namespace."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("maslovlab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        handled = set()
        for (module_name, factory), result_name in _RETURNED.items():
            handled.add(result_name)
            original = getattr(sys.modules[f"maslovlab.{module_name}"], factory, None)
            if original is None:
                self.missing.append(result_name)
                continue
            on_result = lambda fn, result_name=result_name: self.wrap(result_name, fn)
            factory_name = f"{module_name}.{factory}"
            if factory in TRACED[module_name]:
                handled.add(factory_name)
                self._rebind(original, self.wrap(factory_name, original, on_result))
            else:
                self._rebind(original, lambda *a, _f=original, _r=on_result, **k: _r(_f(*a, **k)))
        for module_name, functions in TRACED.items():
            module = sys.modules[f"maslovlab.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                target = getattr(module, function.split(".")[0], None)
                if name in handled:
                    continue
                if "." in function:
                    self._install_method(name, target, function.split(".")[1])
                elif isinstance(target, type):
                    self._install_method(name, target, "__init__")
                elif callable(target):
                    self._rebind(target, self.wrap(name, target))
                else:
                    self.missing.append(name)

    def _install_method(self, name: str, cls, method: str) -> None:
        original = cls.__dict__.get(method) if isinstance(cls, type) else None
        if original is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, original)
        if name == "maslov.LagrangianPairPath":
            wrapped = self._counting_callbacks(wrapped)
        elif name == "maslov.LagrangianPairPath.evaluate":
            wrapped = self._counting_hits(wrapped)
        self._set(cls, method, wrapped)

    def _counting_callbacks(self, init):
        """Path construction that also counts calls into the path's callback."""
        tracer = self

        def construct(path, *args, **kwargs):
            init(path, *args, **kwargs)
            callback = path.callback
            if callback is not None:
                def counted(s):
                    tracer.callback_calls += 1
                    return callback(s)
                object.__setattr__(path, "callback", counted)

        return construct

    def _counting_hits(self, evaluate):
        """evaluate that counts the calls answered without calling the callback."""
        tracer = self

        def counted(path, s):
            before = tracer.callback_calls
            result = evaluate(path, s)
            tracer.evaluate_calls += 1
            tracer.evaluate_hits += tracer.callback_calls == before
            return result

        return counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-round calls and self time of every traced function and module."""
        out = {}
        for module, functions in TRACED.items():
            module_self = 0.0
            for function in functions:
                name = f"{module}.{function}"
                out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / rounds
                module_self += self.self_s.get(name, 0.0)
            out[f"{module}.self_s"] = module_self / rounds
        out["maslov.evaluate_hit_ratio"] = (
            self.evaluate_hits / self.evaluate_calls if self.evaluate_calls else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str) -> None:
        """Every span as a CSV row: name, start, end, parent span index (-1 for none)."""
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent\n")
            for index in range(len(self.span_start)):
                fh.write(
                    f"{index},{self.names[self.span_name[index]]},{self.span_start[index]:.9f},"
                    f"{self.span_end[index]:.9f},{self.span_parent[index]}\n"
                )
