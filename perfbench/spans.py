"""Outside-in tracing of rhjacobi for the benchmark's traced run.

The tracer wraps the public functions at each module boundary of
``src/rhjacobi`` from here, without touching the package: a function is
replaced under every name a package module binds it to, a method on its class.
Each call records a span (name, start, end, parent) in memory; the caller
writes the spans out when the run ends.  A span's self time is its duration
minus the durations of its direct children, so the self times of one request
add up to the request's duration exactly.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Layer boundaries: (module, attribute, span name).  "Class.method" patches a
# method; lu_factor and lu_solve are SciPy's, traced where rhp calls them.
BOUNDARIES = (
    ("rhjacobi.pipeline", "recurrence_range", "pipeline.recurrence_range"),
    ("rhjacobi.pipeline", "toda_evolve", "pipeline.toda_evolve"),
    ("rhjacobi.pipeline", "recip_approx", "pipeline.recip_approx"),
    ("rhjacobi.pipeline", "SolveContext.__init__", "pipeline.context"),
    ("rhjacobi.pipeline", "SolveContext.solution", "pipeline.solution"),
    ("rhjacobi.rhp", "build_contours", "rhp.build_contours"),
    ("rhjacobi.rhp", "solve_matrix_rhp", "rhp.solve"),
    ("rhjacobi.rhp", "lu_factor", "rhp.lu_factor"),
    ("rhjacobi.rhp", "lu_solve", "rhp.lu_solve"),
    ("rhjacobi.rhp", "JumpAssembly.circle_jump", "rhp.circle_jump"),
    ("rhjacobi.rhp", "JumpAssembly.band_jump", "rhp.band_jump"),
    ("rhjacobi.rhp", "RHSolution.eval", "rhp.eval"),
    ("rhjacobi.rhp", "first_order", "rhp.first_order"),
    ("rhjacobi.cauchy", "cauchy_cheb_table", "cauchy.table"),
    ("rhjacobi.green", "build_green", "green.build_green"),
    ("rhjacobi.green", "eval_g", "green.eval_g"),
    ("rhjacobi.auxiliary", "build_hsystem", "auxiliary.build_hsystem"),
    ("rhjacobi.auxiliary", "solve_aux", "auxiliary.solve_aux"),
    ("rhjacobi.auxiliary", "eval_h", "auxiliary.eval_h"),
    ("rhjacobi.chebyshev", "adaptive_dct", "chebyshev.adaptive_dct"),
    ("rhjacobi.weights", "WeightSpec.weight_value", "weights.weight_value"),
    ("rhjacobi.oracle", "adaptive_gauss_mass", "oracle.gauss_mass"),
    ("rhjacobi.oracle", "adaptive_oracle", "oracle.adaptive_oracle"),
)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1], in call order.

    ``solves`` keeps (jumps, contours, solution) of every solve and
    ``table_entries`` / ``unknowns`` the sizes seen at the boundaries; they are
    noted after a span has ended, so they count to the caller's self time only.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.solves: list = []
        self.table_entries = 0
        self.unknowns: list = []
        self._notes = {"rhp.solve": self._note_solve, "rhp.lu_factor": self._note_lu,
                       "cauchy.table": self._note_table}

    def __enter__(self):
        for module, attr, name in BOUNDARIES:
            self._install(module, attr, name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, name: str, fn):
        """fn() in a span of the benchmark's own, such as one whole request."""
        return self._wrap(name, fn)()

    def _install(self, module: str, attr: str, name: str) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(name, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "rhjacobi":
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = self._notes.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _note_solve(self, args, result) -> None:
        _spec, contours, jumps = args[:3]
        self.solves.append((jumps, contours, result))

    def _note_lu(self, args, result) -> None:
        self.unknowns.append(args[0].shape[0])

    def _note_table(self, args, result) -> None:
        self.table_entries += result.size


class SpanStats:
    """Per-name call count, durations and self time, in seconds."""

    def __init__(self, spans: list):
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.durations = defaultdict(list)
        self.self_ns = defaultdict(int)
        for (name, start, end, _), covered in zip(spans, child):
            self.durations[name].append((end - start) * 1e-9)
            self.self_ns[name] += end - start - covered

    def calls(self, *names) -> int:
        return sum(len(self.durations[n]) for n in names)

    def total_s(self, *names) -> float:
        return sum(sum(self.durations[n]) for n in names)

    def self_s(self, *names) -> float:
        return sum(self.self_ns[n] for n in names) * 1e-9

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(*(n for n in self.self_ns if n.split(".")[0] == layer))
