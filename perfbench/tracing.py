"""Layer tracing for one CLI invocation, installed from outside the package.

The tracer wraps public bellscope functions in every module namespace that
holds them, so a call made through ``from .mk import expand_mk`` in signbin
is caught as well as one made through ``mk.expand_mk``.

- Layer entry points get one span per call: name, start, end, and the
  index of the enclosing span.  The busiest, ``integrate_segments``, makes
  about 18,000 spans per pass of root-curves.
- Functions called up to 90,000 times per pass (the quadrature integrand,
  ``correlator_E``, ``inner_product``) get a call count and a total time
  only.  Their time is charged to the enclosing span, so they must not
  call a spanned function.
- A name that the package no longer has is reported as absent, and its
  metrics are left out rather than reported as zero.

Spans are kept in memory and written as JSON when the invocation ends;
``layer_metrics`` in the benchmark process turns them into self times.
"""

from __future__ import annotations

import json
import sys
import time

# Functions that get a span per call.  max_eigenpair is split by constraint.
SPANNED = (
    "cli.main",
    "mk.expand_mk",
    "numerics.integrate_segments",
    "numerics.max_eigenpair",
    "signbin.bell_factor_sign",
    "signbin.bell_matrix",
    "signbin.optimize_state",
    "rootbin.psi3_bell_report",
    "rootbin.binned_product_probabilities",
    "rootbin.overlaps_VW",
    "rootbin.bell_factor_root",
    "catprep.generation_pipeline",
    "erasure.noisy_bell_factor",
)
# Functions that get a call count and total time: "module.attribute path".
COUNTED = (
    "signbin.correlator_E",
    "catprep.CoherentSuperposition.inner_product",
)
EIGEN_SPLIT = ("numerics.max_eigenpair.plain", "numerics.max_eigenpair.nonneg")
# lru_cache'd g_{r,s} table entry; its cache misses count entries computed.
G_TABLE = "signbin._g_magnitude"

# Per-layer metrics: (name, unit, better, function it needs).
_s, _n = "s", "count"
METRICS = (
    ("mk.expand_mk.calls", _n, "lower", "mk.expand_mk"),
    ("mk.expand_mk.self_s", _s, "lower", "mk.expand_mk"),
    ("mk.terms", _n, "lower", "mk.expand_mk"),
    ("numerics.integrate_segments.calls", _n, "lower", "numerics.integrate_segments"),
    ("numerics.integrate_segments.self_s", _s, "lower", "numerics.integrate_segments"),
    ("numerics.segments", _n, "lower", "numerics.integrate_segments"),
    ("numerics.panels", _n, "lower", "numerics.integrate_segments"),
    ("numerics.abscissas", _n, "lower", "numerics.integrate_segments"),
    ("numerics.integrand_s", _s, "lower", "numerics.integrate_segments"),
    ("numerics.panels_per_s", "1/s", "higher", "numerics.integrate_segments"),
    ("numerics.max_eigenpair.plain.calls", _n, "lower", "numerics.max_eigenpair"),
    ("numerics.max_eigenpair.plain.self_s", _s, "lower", "numerics.max_eigenpair"),
    ("numerics.max_eigenpair.nonneg.calls", _n, "lower", "numerics.max_eigenpair"),
    ("numerics.max_eigenpair.nonneg.self_s", _s, "lower", "numerics.max_eigenpair"),
    ("numerics.eigen_residual_max", "1", "lower", "numerics.max_eigenpair"),
    ("signbin.bell_factor_sign.calls", _n, "lower", "signbin.bell_factor_sign"),
    ("signbin.bell_factor_sign.self_s", _s, "lower", "signbin.bell_factor_sign"),
    ("signbin.bell_matrix.calls", _n, "lower", "signbin.bell_matrix"),
    ("signbin.bell_matrix.self_s", _s, "lower", "signbin.bell_matrix"),
    ("signbin.correlator_E.calls", _n, "lower", "signbin.correlator_E"),
    ("signbin.correlator_E.self_s", _s, "lower", "signbin.correlator_E"),
    ("signbin.optimize_state.calls", _n, "lower", "signbin.optimize_state"),
    ("signbin.optimize_state.self_s", _s, "lower", "signbin.optimize_state"),
    ("signbin.g_table.misses", _n, "lower", G_TABLE),
    ("rootbin.psi3_bell_report.calls", _n, "lower", "rootbin.psi3_bell_report"),
    ("rootbin.psi3_bell_report.self_s", _s, "lower", "rootbin.psi3_bell_report"),
    ("rootbin.binned_product_probabilities.calls", _n, "lower", "rootbin.binned_product_probabilities"),
    ("rootbin.binned_product_probabilities.self_s", _s, "lower", "rootbin.binned_product_probabilities"),
    ("rootbin.overlaps_VW.calls", _n, "lower", "rootbin.overlaps_VW"),
    ("rootbin.overlaps_VW.self_s", _s, "lower", "rootbin.overlaps_VW"),
    ("rootbin.bell_factor_root.calls", _n, "lower", "rootbin.bell_factor_root"),
    ("rootbin.bell_factor_root.self_s", _s, "lower", "rootbin.bell_factor_root"),
    ("catprep.generation_pipeline.calls", _n, "lower", "catprep.generation_pipeline"),
    ("catprep.generation_pipeline.self_s", _s, "lower", "catprep.generation_pipeline"),
    ("catprep.inner_product.calls", _n, "lower", "catprep.CoherentSuperposition.inner_product"),
    ("catprep.inner_product.self_s", _s, "lower", "catprep.CoherentSuperposition.inner_product"),
    ("erasure.noisy_bell_factor.calls", _n, "lower", "erasure.noisy_bell_factor"),
    ("erasure.noisy_bell_factor.self_s", _s, "lower", "erasure.noisy_bell_factor"),
    ("cli.main.self_s", _s, "lower", "cli.main"),
    ("cli.bytes_written", "B", "lower", "cli.main"),
    ("trace.overhead_ratio", "1", "lower", None),
)


def _metric_key(path: str) -> str:
    """catprep.CoherentSuperposition.inner_product -> catprep.inner_product"""
    parts = path.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _resolve(path: str):
    """(owner, attribute, object) for "module.attr[.attr]" under bellscope,
    or None when the package no longer has it."""
    module_name, *attrs = path.split(".")
    owner = sys.modules.get(f"bellscope.{module_name}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
    if owner is None or not hasattr(owner, attrs[-1]):
        return None
    return owner, attrs[-1], getattr(owner, attrs[-1])


class Tracer:
    """Spans and counters of one invocation.  Single-threaded by design:
    the benchmark runs every command with --jobs 1."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, seconds in counted calls]
        self._open = []
        self.counted = {}  # name -> [calls, seconds]
        self.totals = {"mk.terms": 0, "numerics.segments": 0, "numerics.abscissas": 0}
        self.residual_max = 0.0
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _count(self, name, fn, args, kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            entry = self.counted.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            if self._open:
                self.spans[self._open[-1]][4] += elapsed

    # -- wrappers ----------------------------------------------------------

    def wrap(self, path, fn):
        if path == "mk.expand_mk":
            return self._wrap_expand_mk(fn)
        if path == "numerics.integrate_segments":
            return self._wrap_integrate_segments(fn)
        if path == "numerics.max_eigenpair":
            return self._wrap_max_eigenpair(fn)
        if path in COUNTED:
            name = _metric_key(path)
            return lambda *a, **k: self._count(name, fn, a, k)
        return lambda *a, **k: self._span(path, fn, a, k)

    def _wrap_expand_mk(self, fn):
        def expand_mk(*args, **kwargs):
            result = self._span("mk.expand_mk", fn, args, kwargs)
            self.totals["mk.terms"] += len(getattr(result, "terms", ()))
            return result

        return expand_mk

    def _wrap_integrate_segments(self, fn):
        def integrate_segments(f, segments, *args, **kwargs):
            segments = list(segments)
            self.totals["numerics.segments"] += len(segments)

            def integrand(x):
                self.totals["numerics.abscissas"] += getattr(x, "size", 1)
                return self._count("numerics.integrand", f, (x,), {})

            return self._span(
                "numerics.integrate_segments", fn, (integrand, segments, *args), kwargs
            )

        return integrate_segments

    def _wrap_max_eigenpair(self, fn):
        def max_eigenpair(matrix, *args, **kwargs):
            constraint = kwargs.get("constraint", args[0] if args else None)
            name = EIGEN_SPLIT[constraint is not None]
            lam, v = self._span(name, fn, (matrix, *args), kwargs)
            self.residual_max = max(
                self.residual_max, _residual(matrix, lam, v, constraint is not None)
            )
            return lam, v

        return max_eigenpair

    # -- installation and output ---------------------------------------------

    def install(self):
        """Wrap every traced function wherever a bellscope module holds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bellscope" or n.startswith("bellscope."))
        ]
        for path in SPANNED + COUNTED:
            found = _resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, original = found
            wrapper = self.wrap(path, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        if _resolve(G_TABLE) is None:
            self.absent.append(G_TABLE)

    def write(self, path):
        g_table = _resolve(G_TABLE)
        cache_info = getattr(g_table[2], "cache_info", None) if g_table else None
        payload = {
            "spans": self.spans,
            "counted": self.counted,
            "totals": self.totals,
            "residual_max": self.residual_max,
            "g_table_misses": cache_info().misses if cache_info else None,
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _residual(matrix, lam, v, nonnegative):
    """Eigen residual |Mv - lam v|; for the non-negative problem the
    stationarity residual, which ignores gradient components pushing a
    zero entry below zero."""
    import numpy as np

    grad = np.asarray(matrix, dtype=float) @ v - lam * v
    if nonnegative:
        grad = np.where(v <= 1e-10, np.maximum(grad, 0.0), grad)
    return float(np.linalg.norm(grad))


def layer_metrics(traces, bytes_written):
    """Per-layer metrics of one pass from (trace, time scale) pairs, one per
    invocation; every time is multiplied by its scale."""
    calls, self_s, inclusive = {}, {}, {}
    counted, totals = {}, {}
    residual_max, g_misses = 0.0, 0
    absent = set()
    for trace, scale in traces:
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _, in_counted) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own = (end - start) - children[index] - in_counted
            self_s[name] = self_s.get(name, 0.0) + own * scale
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) * scale
        for name, (n, seconds) in trace["counted"].items():
            entry = counted.setdefault(name, [0, 0.0])
            entry[0] += n
            entry[1] += seconds * scale
        for name, value in trace["totals"].items():
            totals[name] = totals.get(name, 0) + value
        residual_max = max(residual_max, trace["residual_max"])
        g_misses += trace["g_table_misses"] or 0
        absent.update(trace["absent"])

    panels, integrand_s = counted.get("numerics.integrand", (0, 0.0))
    quadrature_s = inclusive.get("numerics.integrate_segments", 0.0)
    values = {
        "mk.terms": totals.get("mk.terms", 0),
        "numerics.segments": totals.get("numerics.segments", 0),
        "numerics.panels": panels,
        "numerics.abscissas": totals.get("numerics.abscissas", 0),
        "numerics.integrand_s": integrand_s,
        "numerics.panels_per_s": panels / quadrature_s if quadrature_s else 0.0,
        "numerics.eigen_residual_max": residual_max,
        "signbin.g_table.misses": g_misses,
        "cli.bytes_written": bytes_written,
    }
    for name in SPANNED[1:] + EIGEN_SPLIT:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for path in COUNTED:
        n, seconds = counted.get(_metric_key(path), (0, 0.0))
        values[f"{_metric_key(path)}.calls"] = n
        values[f"{_metric_key(path)}.self_s"] = seconds
    values["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return {
        name: values[name]
        for name, _unit, _better, needs in METRICS
        if name in values and needs not in absent
    }, sorted(absent)
