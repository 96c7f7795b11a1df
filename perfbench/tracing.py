"""In-memory spans around calls into each plate_afem layer.

``Tracer.installed()`` replaces the module attributes through which callers
look the layer functions up with timing wrappers, and restores them on exit.
``plate_afem.afem`` imports ``build_space`` and ``refine_nvb`` by name, so
those are wrapped on the ``afem`` module; it calls the ``assembly``,
``eigen`` and ``estimator`` functions as module attributes, so those are
wrapped on their own modules.  The benchmark calls the side tools through
module attributes as well.

A span's self time is its duration minus the durations of its direct
children.  The program is single threaded, so children never overlap.
The layers have no queue or lock, so there is no waiting time to record.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LARGE_NDOF = 1000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_index: int
    attrs: dict = field(default_factory=dict)


def _solve_bucket(args):
    A = args[0]
    n = A.n if hasattr(A, "n") else A.shape[0]
    return "eigen.solve_gevp.large" if n >= LARGE_NDOF else "eigen.solve_gevp.small"


def _ndof(args, result):
    return {"ndof": result.ndof}


def _triangles_out(args, result):
    return {"triangles_out": result.num_triangles}


def _marked(args, result):
    return {"marked": len(result), "triangles": len(args[0].eta2)}


# (module, attribute, span name or function of the call's arguments, annotator)
TARGETS = [
    ("afem", "run_afem", "afem.run_afem", None),
    ("afem", "build_space", "space.build_space", _ndof),
    ("space", "build_space", "space.build_space", _ndof),
    ("afem", "refine_nvb", "mesh.refine_nvb", _triangles_out),
    ("assembly", "assemble_stiffness", "assembly.assemble_stiffness", None),
    ("assembly", "assemble_mass", "assembly.assemble_mass", None),
    ("eigen", "solve_gevp", _solve_bucket, None),
    ("eigen", "separation", "eigen.separation", None),
    ("estimator", "estimate", "estimator.estimate", None),
    ("estimator", "dorfler_mark", "estimator.dorfler_mark", _marked),
    ("helmholtz", "build_xspace", "helmholtz.build_xspace", None),
    ("helmholtz", "dimension_audit", "helmholtz.dimension_audit", None),
    ("helmholtz", "decompose", "helmholtz.decompose", None),
    ("space", "morley_interpolate", "space.morley_interpolate", None),
]

LOOP_SPANS = ("afem.run_afem", "space.build_space", "mesh.refine_nvb",
              "assembly.assemble_stiffness", "assembly.assemble_mass",
              "eigen.solve_gevp.large", "eigen.solve_gevp.small",
              "eigen.separation", "estimator.estimate", "estimator.dorfler_mark")
SIDE_SPANS = ("space.build_space", "helmholtz.build_xspace",
              "helmholtz.dimension_audit", "helmholtz.decompose",
              "space.morley_interpolate")


class Tracer:
    """Collects spans in memory; ``pass_index`` tags the spans of each pass."""

    def __init__(self):
        self.spans = []
        self.pass_index = 0
        self._open = []

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name(args) if callable(name) else name, 0.0, 0.0,
                        self._open[-1] if self._open else -1, self.pass_index)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.attrs["failed"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                span.attrs.update(annotate(args, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, annotate in TARGETS:
                module = importlib.import_module(f"plate_afem.{mod_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals_by_pass(self):
        """{pass_index: {span name: {"self_s", "calls", attribute sums}}}."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for s, c in zip(self.spans, child):
            agg = out[s.pass_index][s.name]
            agg["self_s"] += s.end - s.start - c
            agg["calls"] += 1
            for key, value in s.attrs.items():
                agg[key] += value
        return out

    def to_json(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_index, **s.attrs}
                for s in self.spans]
