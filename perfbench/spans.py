"""Span recorder for traced passes.

`install` wraps the public functions of the koszulkit layers, on the module
that defines each one and on every koszulkit module that imported it, plus
a few methods that carry the layer metrics. Each call records a span (name,
start, end, parent) in typed arrays kept in memory; the per-layer metrics
are computed from them at the end of the pass, and `save` writes the spans
out. Calls too frequent for a span each (`PolynomialRing.from_dict`,
`QuotientRing.reduce`) are only counted.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "resolution", "groebner", "quotient", "koszul", "filtration", "corpus")

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
METRICS = [
    ("linalg.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.s", "s"),
    ("linalg.echelon_add.calls", "count"), ("linalg.echelon_add.s", "s"),
    ("linalg.echelon_add.inserted", "count"),
    ("resolution.self_s", "s"),
    ("resolution.resolve.calls", "count"), ("resolution.resolve.s", "s"),
    ("resolution.resolve.cache_hits", "count"),
    ("resolution.homology_dims.s", "s"),
    ("groebner.self_s", "s"),
    ("groebner.buchberger.calls", "count"), ("groebner.buchberger.s", "s"),
    ("groebner.module_buchberger.calls", "count"), ("groebner.module_buchberger.s", "s"),
    ("groebner.colon_ideal.calls", "count"), ("groebner.colon_ideal.s", "s"),
    ("groebner.coords_of_vector.calls", "count"), ("groebner.coords_of_vector.s", "s"),
    ("groebner.vector_from_coords.calls", "count"), ("groebner.vector_from_coords.s", "s"),
    ("groebner.minimal_module_generators.s", "s"),
    ("groebner.free_var_matrix.calls", "count"),
    ("quotient.self_s", "s"),
    ("quotient.mul_monomial_nf.calls", "count"), ("quotient.mul_monomial_nf.s", "s"),
    ("quotient.reduce.calls", "count"),
    ("quotient.hilbert_series.calls", "count"), ("quotient.hilbert_series.s", "s"),
    ("quotient.scaled_submodule.s", "s"),
    ("quotient.quotient_by_linear_forms.calls", "count"),
    ("arith.from_dict.calls", "count"),
    ("koszul.self_s", "s"),
    ("koszul.koszul_verdict.calls", "count"), ("koszul.koszul_verdict.s", "s"),
    ("koszul.poincare_hilbert_check.s", "s"),
    ("filtration.self_s", "s"),
    ("filtration.colon_of_linear.calls", "count"),
    ("filtration.search_groebner_flag.s", "s"),
    ("filtration.flag_candidates", "count"), ("filtration.flags_completed", "count"),
    ("filtration.all_linear_ideals_filtration.s", "s"),
    ("filtration.check_fitzgerald.s", "s"),
    ("corpus.self_s", "s"),
    ("corpus.theorem_suite.s", "s"), ("corpus.build_fixture.s", "s"),
    ("trace.overhead_s", "s"),
]


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")     # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def span(self, name: str, fn, after=None, before=None):
        """Wrap fn so that each call records a span; `before(args)` and
        `after(result)` may add counts."""
        nid = self._id(name)
        rec = self
        stack, open_, clock = self._stack, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.outer.append(open_[nid] == 0)
            rec.end.append(0.0)
            if before is not None:
                before(args)
            open_[nid] += 1
            stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                stack.pop()
                open_[nid] -= 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, and calls and inclusive time per span name
        (outermost calls only, so recursion is not counted twice)."""
        s = self.spans()
        out: dict[str, float] = dict(self.counts)
        if not len(s["start"]):
            return out
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(
            s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        layer_of = np.array([n.split(".")[0] for n in self.names])[s["name_id"]]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
        outer = s["outer"] == 1
        calls = np.bincount(s["name_id"][outer], minlength=len(self.names))
        total = np.bincount(s["name_id"][outer], weights=dur[outer], minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.s"] = float(total[nid])
        return out


def _layer_functions(layer: str):
    mod = importlib.import_module(f"koszulkit.{layer}")
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def install(rec: Recorder) -> None:
    """Wrap every public koszulkit function and the metric-carrying methods."""
    import koszulkit  # noqa: F401  (loads every layer)
    from koszulkit.arith import PolynomialRing
    from koszulkit.linalg import Echelon
    from koszulkit.quotient import GradedModule, QuotientRing

    hooks = {
        "resolution.resolve": {
            "before": lambda args: _add(
                rec, "resolution.resolve.cache_hits", tuple(args[1:3]) in args[0].resolutions
            ),
        },
        "filtration.search_groebner_flag": {
            "after": lambda res: (
                _add(rec, "filtration.flag_candidates", res.candidates_tested),
                _add(rec, "filtration.flags_completed", res.flags_completed),
            ),
        },
    }
    wrapped = {}
    for layer in LAYERS:
        for name, fn in _layer_functions(layer):
            span_name = f"{layer}.{name}"
            wrapped[id(fn)] = (fn, rec.span(span_name, fn, **hooks.get(span_name, {})))
    for modname, mod in list(sys.modules.items()):
        if modname != "koszulkit" and not modname.startswith("koszulkit."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    Echelon.add = rec.span(
        "linalg.echelon_add", Echelon.add,
        after=lambda inserted: _add(rec, "linalg.echelon_add.inserted", inserted),
    )
    QuotientRing.mul_monomial_nf = rec.span("quotient.mul_monomial_nf", QuotientRing.mul_monomial_nf)
    QuotientRing.hilbert_series = rec.span("quotient.hilbert_series", QuotientRing.hilbert_series)
    GradedModule.hilbert_series = rec.span("quotient.hilbert_series", GradedModule.hilbert_series)
    QuotientRing.reduce = rec.counter("quotient.reduce.calls", QuotientRing.reduce)
    PolynomialRing.from_dict = rec.counter("arith.from_dict.calls", PolynomialRing.from_dict)


def _add(rec: Recorder, name: str, value: int | bool) -> None:
    rec.counts[name] += int(value)
