"""Span recording from outside the program: wrap coxsim's public functions.

Every function in a target list is replaced, in every coxsim module whose
namespace holds it, by a wrapper that records a span (name, start, end,
parent).  The package imports names with ``from .x import y``, so patching
only the defining module would miss the callers; patching every namespace
that holds the same function object catches them all.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time covered by its child spans; calls are single-threaded, so
children never overlap and that time is the sum of their durations.

Counts are taken by hooks that read a wrapped call's arguments and result.
``Functional.__call__`` and ``Configuration.count_in`` are never wrapped:
they run about a million times per sweep point, and a wrapper there would
swamp what it measures.  Evaluation counts are derived from call arguments
instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "coxsim"
MODULES = ("cli", "harness", "coxmodels", "pointprocess", "diagnostics",
           "glauber", "steinbound", "geometry")


class Counters(dict):
    """Named counts and maxima gathered by the hooks."""

    def add(self, name: str, value: float):
        self[name] = self.get(name, 0.0) + value

    def max(self, name: str, value: float):
        self[name] = max(self.get(name, 0.0), value)


def _cox_line_counts(counters, sample, *args, **kwargs):
    counters.add("coxmodels.points", len(sample.points))
    counters.add("coxmodels.lines", sample.lines.shape[0])


def _satellite_counts(counters, result, *args, **kwargs):
    sample, _twin = result
    counters.add("coxmodels.satellite_points", len(sample.points))
    counters.add("coxmodels.orbits", sample.orbits.shape[0])


def _batch_points(counters, result, *args, **kwargs):
    _counts, points, _rep_ids = result
    counters.add("pointprocess.batch_points", points.shape[0])


def _wasserstein_evals(counters, result, samples, reference_sampler,
                       functionals, rng, ref_factor=4):
    counters.add("diagnostics.functional_evals",
                 len(samples) * (1 + ref_factor) * len(functionals))


def _coupled_evals(counters, result, pairs, functionals):
    counters.add("diagnostics.functional_evals", len(pairs) * 2 * len(functionals))


def _quad_error(counters, result, *args, **kwargs):
    _value, err = result
    counters.max("steinbound.quad_error_max", err)


def _coarea_error(counters, result, *args, **kwargs):
    counters.max("steinbound.quad_error_max", result.error_estimate)


def _rows_failed(counters, rows, *args, **kwargs):
    counters.add("harness.check_rows_failed", sum(not r.passed for r in rows))


CHECK_GROUPS = ("mecke", "invariance", "glauber", "coarea", "bounds")

# The units a user waits for: one results.csv row, or one check group.
UNITS = [("harness", "run_sweep_point", None)] + [
    ("harness", f"check_{group}", _rows_failed) for group in CHECK_GROUPS]

# Layer boundaries for the traced run: (module, function, count hook).
LAYERS = UNITS + [
    ("cli", "main", None),
    ("harness", "run_experiment", None),
    ("harness", "run_validation_suite", None),
    ("coxmodels", "effective_intensity", None),
    ("coxmodels", "sample_cox_line", _cox_line_counts),
    ("coxmodels", "sample_satellites_with_twin", _satellite_counts),
    ("geometry", "chord_intervals", None),
    ("pointprocess", "sample_ppp_window", None),
    ("pointprocess", "sample_uniform_sphere", None),
    ("pointprocess", "ppp_batch", _batch_points),
    ("pointprocess", "region_counts", None),
    ("diagnostics", "wasserstein_lower_bound", _wasserstein_evals),
    ("diagnostics", "coupled_wasserstein_lower_bound", _coupled_evals),
    ("diagnostics", "count_tv_lower_bound", None),
    ("diagnostics", "mecke_check_ppp", None),
    ("diagnostics", "mecke_check_bpp", None),
    ("diagnostics", "invariance_check", None),
    ("glauber", "glauber_simulate", None),
    ("glauber", "semigroup_sample", None),
    ("glauber", "semigroup_trajectory_consistency", None),
    ("glauber", "generator_apply", None),
    ("glauber", "contraction_estimate", None),
    ("steinbound", "chord_square_integral", _quad_error),
    ("steinbound", "cox_bound", None),
    ("steinbound", "coarea_check", _coarea_error),
]


class Tracer:
    """In-memory span recorder.  Spans are lists [name, start, end, parent]."""

    def __init__(self):
        self.spans: list = []
        self.counters = Counters()
        self._stack: list = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result, *args, **kwargs)
            return result

        return wrapper

    def install(self, targets):
        """Wrap each target in every loaded coxsim namespace that holds it."""
        namespaces = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        namespaces.append(sys.modules[PACKAGE])
        for module, func, hook in targets:
            original = getattr(namespaces[MODULES.index(module)], func)
            wrapper = self.wrap(f"{module}.{func}", original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def units(self) -> list:
        """(name, start, end) of each unit span, in call order."""
        names = {f"{m}.{f}" for m, f, _ in UNITS}
        return [(name, start, end) for name, start, end, _ in self.spans
                if name in names]
