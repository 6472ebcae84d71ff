"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions of fuzzyqm's modules for the duration of
a ``with`` block.  A ``from ... import`` binds the function under its own name
in the importing module, so every binding of the original object in every
loaded ``fuzzyqm`` module is replaced, and restored on exit.  Each wrapped call
records a span (name, parent, start, end); counters record work at the same
boundaries.  A target that no longer exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer module -> functions recorded as spans
SPANNED = {
    "cli": ("main",),
    "deuteron": ("solve_depth", "core_radius", "calibrate_smearing_mass"),
    "numerics.quadrature": ("integrate_semi_infinite",),
    "numerics.solvers": ("find_root", "golden_section"),
    "numerics.linalg": ("derivative_matrix", "eig_sym", "eig_generalized"),
    "operators": ("uncertainty_report", "build_fuzzy_position_op", "verify_commutator_xf_p", "verify_spacetime_commutator"),
    "oscillator": ("numeric_spectrum",),
}
# called tens of thousands of times per operation: counted only, to keep the overhead small
COUNTED = {"numerics.quadrature": ("integrate",)}

# every per-layer metric with its unit, in report order
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("deuteron.solve_depth.calls", "count"),
    ("deuteron.solve_depth.self_s", "s"),
    ("deuteron.core_radius.s", "s"),
    ("deuteron.calibrate_smearing_mass.s", "s"),
    ("numerics.quadrature.integrate_semi_infinite.calls", "count"),
    ("numerics.quadrature.integrate_semi_infinite.self_s", "s"),
    ("numerics.quadrature.integrate.calls", "count"),
    ("numerics.quadrature.rules_per_integral", "ratio"),
    ("numerics.solvers.find_root.calls", "count"),
    ("numerics.solvers.find_root.fevals", "count"),
    ("numerics.solvers.golden_section.calls", "count"),
    ("numerics.solvers.golden_section.fevals", "count"),
    ("operators.uncertainty_report.calls", "count"),
    ("operators.uncertainty_report.self_s", "s"),
    ("operators.build_fuzzy_position_op.calls", "count"),
    ("operators.verify_commutator_xf_p.s", "s"),
    ("operators.verify_spacetime_commutator.s", "s"),
    ("numerics.linalg.derivative_matrix.calls", "count"),
    ("numerics.linalg.derivative_matrix.self_s", "s"),
    ("numerics.grids.OperatorMatrix.calls", "count"),
    ("numerics.grids.OperatorMatrix.self_s", "s"),
    ("numerics.grids.OperatorMatrix.bytes", "bytes"),
    ("numerics.linalg.eig_sym.calls", "count"),
    ("numerics.linalg.eig_sym.self_s", "s"),
    ("numerics.linalg.eig_sym.n3_sum", "count"),
    ("numerics.linalg.eig_generalized.self_s", "s"),
    ("oscillator.numeric_spectrum.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_OPERATOR_MATRIX = "numerics.grids.OperatorMatrix"


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its child spans, clipped to the span.

    ``spans`` is a sequence of (name, parent index or -1, start, end).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ()) if hi > start and lo < end]
        out.append((end - start) - union_length(kids))
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counters; absent layers read 0."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    exclusive: defaultdict = defaultdict(float)
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        calls[name] += 1
        inclusive[name] += end - start
        exclusive[name] += own
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = float(calls[layer] + counts.get(metric, 0))
        elif kind == "self_s":
            values[metric] = exclusive[layer]
        elif kind == "s":
            values[metric] = inclusive[layer]
        else:
            values[metric] = float(counts.get(metric, 0))
    semi = values["numerics.quadrature.integrate_semi_infinite.calls"]
    rules = values["numerics.quadrature.integrate.calls"]
    values["numerics.quadrature.rules_per_integral"] = rules / semi if semi else 0.0
    return values


class Tracer:
    """Context manager that records spans and counts in fuzzyqm while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fevals(self, name):
        counts = self.counts

        def before(args):
            f = args[0]

            def counted(x):
                counts[name] += 1
                return f(x)

            return (counted,) + tuple(args[1:])

        return before

    def _eig_size(self, args):
        a = args[0]
        n = len(getattr(a, "entries", a))
        self.counts["numerics.linalg.eig_sym.n3_sum"] += n**3
        return args

    def _wrap(self, layer: str, fn_name: str, fn):
        name = f"{layer}.{fn_name}"
        if fn_name in COUNTED.get(layer, ()):
            return self._count(f"{name}.calls", fn)
        before = None
        if layer == "numerics.solvers":
            before = self._fevals(f"{name}.fevals")
        elif name == "numerics.linalg.eig_sym":
            before = self._eig_size
        return self._span(name, fn, before)

    # --- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items()) if k == "fuzzyqm" or k.startswith("fuzzyqm.")]
        for layer in set(SPANNED) | set(COUNTED):
            home = sys.modules.get(f"fuzzyqm.{layer}")
            for fn_name in SPANNED.get(layer, ()) + COUNTED.get(layer, ()):
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, fn_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        self._patch_operator_matrix()
        return self

    def _patch_operator_matrix(self) -> None:
        grids = sys.modules.get("fuzzyqm.numerics.grids")
        cls = getattr(grids, "OperatorMatrix", None)
        original = getattr(cls, "__dict__", {}).get("__post_init__")
        if original is None:
            return
        counts = self.counts

        def post_init(obj):
            original(obj)
            counts[f"{_OPERATOR_MATRIX}.bytes"] += obj.entries.nbytes

        self._undo.append((cls, "__post_init__", original))
        cls.__post_init__ = self._span(_OPERATOR_MATRIX, post_init)

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
