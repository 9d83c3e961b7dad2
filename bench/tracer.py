"""Span tracing of trisect's public functions, done from outside the package.

`install` replaces each function listed in TRACED by a wrapper, in every
trisect module that holds a reference to it: the package modules import
names directly (``from .theta import theta_batch``), so rebinding the
defining module alone would miss most calls.  While `Tracer.enabled` is
set, each call records one span (name, start, end, parent span, op id and,
for the theta kernels, the number of argument points, the derivative order
and the truncation radius).  Spans stay in memory until the run writes
them out.  A listed function that no longer exists is recorded in
`Tracer.missing` and its metrics read 0.
"""

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "trisect"

#: (module, function) pairs traced; each is one layer boundary.
TRACED = (
    ("theta", "theta_batch"),
    ("theta", "second_order_basis"),
    ("curves", "period_matrix"),
    ("curves", "abel_jacobi"),
    ("curves", "riemann_constant"),
    ("numeric", "nearest_lattice_vector"),
    ("numeric", "numerical_rank"),
    ("geometry", "theta_divisor_point"),
    ("geometry", "on_theta"),
    ("geometry", "gauss_map"),
    ("secants", "certify_secant"),
    ("secants", "multisecant_from_Bl"),
    ("gamma00", "trisecant_gamma00_test"),
    ("gamma00", "gamma00_dimension"),
    ("cli", "run"),
)

#: Per-layer metrics reported by the traced run, as (name, unit).
LAYER_METRICS = (
    [(f"theta.second_order_basis.{q}", u) for q, u in (
        ("calls", "count"), ("rows", "count"), ("self_s", "s"),
        ("rows_per_s", "1/s"))]
    + [(f"theta.theta_batch.d{d}.{q}", u) for d in range(3)
       for q, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))]
    + [("theta.theta_batch.rows_per_s", "1/s"),
       ("theta.theta_batch.radius_max", "1"),
       ("curves.riemann_constant.calls", "count"),
       ("curves.riemann_constant.total_s", "s"),
       ("curves.riemann_constant.theta_rows", "count"),
       ("curves.period_matrix.calls", "count"),
       ("curves.period_matrix.self_s", "s"),
       ("curves.abel_jacobi.calls", "count"),
       ("curves.abel_jacobi.self_s", "s"),
       ("numeric.nearest_lattice_vector.calls", "count"),
       ("numeric.nearest_lattice_vector.self_s", "s"),
       ("numeric.numerical_rank.calls", "count"),
       ("numeric.numerical_rank.self_s", "s"),
       ("geometry.theta_divisor_point.calls", "count"),
       ("geometry.theta_divisor_point.self_s", "s"),
       ("geometry.theta_divisor_point.theta_calls_per_call", "count"),
       ("geometry.on_theta.calls", "count"),
       ("geometry.on_theta.self_s", "s"),
       ("geometry.gauss_map.calls", "count"),
       ("geometry.gauss_map.self_s", "s"),
       ("secants.certify_secant.calls", "count"),
       ("secants.certify_secant.self_s", "s"),
       ("secants.certify_secant.total_s", "s"),
       ("secants.multisecant_from_Bl.calls", "count"),
       ("secants.multisecant_from_Bl.total_s", "s"),
       ("gamma00.trisecant_gamma00_test.calls", "count"),
       ("gamma00.trisecant_gamma00_test.self_s", "s"),
       ("gamma00.trisecant_gamma00_test.total_s", "s"),
       ("gamma00.gamma00_dimension.calls", "count"),
       ("gamma00.gamma00_dimension.self_s", "s"),
       ("cli.run.calls", "count"),
       ("cli.run.self_s", "s"),
       ("trace.overhead_ratio", "ratio")])

#: Metrics that must repeat exactly between two traced runs of one seed.
COUNT_SUFFIXES = (".calls", ".rows", ".radius_max", ".theta_rows",
                  ".theta_calls_per_call")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "rows", "deriv",
                 "radius")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.rows = self.deriv = self.radius = None

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _points_and_deriv(sig, args, kwargs):
    """Row count of the points argument ``Z`` and the ``deriv`` order, for
    functions whose signature has them; None where it does not."""
    if sig is None:
        return None, None
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None, None
    bound.apply_defaults()
    rows = deriv = None
    if "Z" in bound.arguments:
        shape = getattr(bound.arguments["Z"], "shape", None)
        if shape is None:
            shape = (len(bound.arguments["Z"]),)
        rows = 1 if len(shape) <= 1 else int(shape[0])
    if isinstance(bound.arguments.get("deriv"), int):
        deriv = bound.arguments["deriv"]
    return rows, deriv


def _radius(result):
    """The truncation radius of a ``(values, radius, tail)`` result."""
    if isinstance(result, tuple) and len(result) == 3 \
            and isinstance(result[1], (int, float)):
        return float(result[1])
    return None


class Tracer:
    """In-memory span recorder; off until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.op = "setup"
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if sig is not None and not {"Z", "deriv"} & set(sig.parameters):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1,
                        self.op)
            span.rows, span.deriv = _points_and_deriv(sig, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.radius = _radius(result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function wherever trisect refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def layer_metrics(self, overhead_ratio):
        """Aggregate the spans into the LAYER_METRICS values.

        self time is a span's duration minus its direct children's;
        total time counts only spans with no enclosing span of the same
        name, so re-entrant calls are not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start

        def ancestors(i):
            i = spans[i].parent
            while i >= 0:
                yield spans[i].name
                i = spans[i].parent

        agg = {}

        def add(key, value):
            agg[key] = agg.get(key, 0) + value

        radius_max = 0.0
        for i, span in enumerate(spans):
            name = span.name
            self_s = span.end - span.start - child[i]
            above = set(ancestors(i))
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            if name not in above:
                add(f"{name}.total_s", span.end - span.start)
            if span.rows is not None:
                add(f"{name}.rows", span.rows)
            if name == "theta.theta_batch":
                key = f"{name}.d{span.deriv}"
                add(f"{key}.calls", 1)
                add(f"{key}.rows", span.rows or 0)
                add(f"{key}.self_s", self_s)
                if span.radius is not None:
                    radius_max = max(radius_max, span.radius)
                if "curves.riemann_constant" in above:
                    add("curves.riemann_constant.theta_rows_sum",
                        span.rows or 0)
                if "geometry.theta_divisor_point" in above:
                    add("geometry.theta_divisor_point.theta_calls", 1)

        def ratio(num, den):
            return agg.get(num, 0) / agg[den] if agg.get(den) else 0.0

        agg["theta.theta_batch.radius_max"] = radius_max
        for name in ("theta.theta_batch", "theta.second_order_basis"):
            agg[f"{name}.rows_per_s"] = ratio(f"{name}.rows",
                                              f"{name}.self_s")
        agg["curves.riemann_constant.theta_rows"] = ratio(
            "curves.riemann_constant.theta_rows_sum",
            "curves.riemann_constant.calls")
        agg["geometry.theta_divisor_point.theta_calls_per_call"] = ratio(
            "geometry.theta_divisor_point.theta_calls",
            "geometry.theta_divisor_point.calls")
        agg["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": agg.get(name, 0), "unit": unit}
                for name, unit in LAYER_METRICS}


def counts_of(metrics):
    """The subset of layer metrics that must repeat exactly."""
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES)}
