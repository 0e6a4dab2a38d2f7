"""Span tracing of einext's layers from outside the program.

``Tracer.install`` replaces the entry points listed in SPANS (module
functions, and every alias other einext modules imported, or class
attributes) by wrappers that record one span each: name, start, end,
parent span and operation.  Spans live in flat arrays in memory and are
written out by ``write``.  A listed name the program no longer has is
skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (metric, einext module, attribute, replace aliases in other einext modules)
SPANS = (
    ("spectral.enumerate_types", "spectral", "enumerate_types", True),
    ("spectral.cone_membership", "spectral", "cone_membership", True),
    ("ratlinalg.SpanTracker.add", "ratlinalg", "SpanTracker.add", False),
    ("ratlinalg.SpanTracker.copy", "ratlinalg", "SpanTracker.copy", False),
    ("ratlinalg.SpanTracker.reduce_matrix", "ratlinalg", "SpanTracker.reduce_matrix", False),
    ("ratlinalg.solve_int_system", "ratlinalg", "solve_int_system", True),
    ("ratlinalg.solve_square", "ratlinalg", "solve_square", True),
    ("exactlp.cone_decompose", "exactlp", "cone_decompose", True),
    ("curvature.ricci_deformation", "curvature", "ricci_deformation", True),
    ("curvature.ricci_deformation_at", "curvature", "ricci_deformation_at", True),
    ("curvature.scalar_deformation", "curvature", "scalar_deformation", True),
    ("curvature.extension_ricci", "curvature", "extension_ricci", True),
    # Only the solver's reference: verify reaches _grouped_terms through ricci_deformation.
    ("curvature.grouped_terms", "solver", "_grouped_terms", False),
    ("verifier.verify_extension", "verifier", "verify_extension", True),
    ("verifier.classify", "verifier", "classify_type_0001", True),
    ("verifier.classify", "verifier", "classify_type_1110", True),
    ("verifier.classify", "verifier", "classify_type_1112", True),
    ("algebra.StructureTensor.dense", "algebra", "StructureTensor.dense", False),
    ("algebra.jacobi_components", "algebra", "jacobi_components", True),
    ("algebra.algebra_from_json", "algebra", "algebra_from_json", True),
    ("scalars.AffineRational.add", "scalars", "AffineRational.__add__", False),
    ("scalars.AffineRational.add", "scalars", "AffineRational.__sub__", False),
    ("solver.search", "solver", "search", True),
    ("solver.model_build", "solver", "_QuadraticResidual.__init__", False),
    ("solver.lm", "solver", "_levenberg_marquardt", False),
    ("solver.jacobian", "solver", "_central_jacobian", False),
)
SPAN_NAMES = tuple(dict.fromkeys(metric for metric, *_ in SPANS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.signatures: set = set()
        self._saved: list = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.name_of)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.start.append(time.perf_counter() if start is None else start)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if end is None else end
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """A span measured elsewhere, e.g. inside a child process."""
        idx = self.open(name, start)
        self.close(idx, end)
        return idx

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def _set(self, holder, attr: str, value) -> None:
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        mods = {name[len("einext."):]: mod for name, mod in sys.modules.items()
                if name.startswith("einext.")}
        everywhere = [m for name, m in sys.modules.items() if name == "einext" or name.startswith("einext.")]
        for metric, modname, attr, aliases in SPANS:
            holder = mods.get(modname)
            if "." in attr:
                holder = getattr(holder, attr.split(".")[0], None)
                attr = attr.split(".")[1]
            if holder is None or attr not in holder.__dict__:
                continue
            fn = holder.__dict__[attr]
            wrapped = fn
            if metric == "solver.model_build":
                # Count the probe evaluations the model build makes of its residual.
                def wrapped(model, fun, *args, _fn=fn, **kwargs):
                    return _fn(model, self._counted("solver.model_build.probes", fun), *args, **kwargs)
            wrapper = self._span(metric, wrapped)
            targets = everywhere if aliases else [holder]
            for mod in targets:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._set(mod, key, wrapper)
        ratlinalg, solver = mods.get("ratlinalg"), mods.get("solver")
        tracker = getattr(ratlinalg, "SpanTracker", None)
        if tracker is not None and "signature" in tracker.__dict__:
            signature = tracker.__dict__["signature"]

            def collect(self_, _fn=signature):
                value = _fn(self_)
                self.signatures.add(value)
                return value

            self._set(tracker, "signature", collect)
        model = getattr(solver, "_QuadraticResidual", None)
        if model is not None and "__call__" in model.__dict__:
            self._set(model, "__call__", self._counted("solver.residual_evals", model.__dict__["__call__"]))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, inclusive seconds, self seconds (minus child spans)."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            incl[k] += dur
            own[k] += dur - child[i]
        return {name: (calls[k], incl[k], own[k]) for k, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_s,end_s\n")
            for i in range(len(self.name_of)):
                handle.write(
                    f"{i},{self.parent[i]},{self.op_of[i]},{self.names[self.name_of[i]]},"
                    f"{self.start[i] - self.t0:.7f},{self.end[i] - self.t0:.7f}\n"
                )
