"""The benchmark's tracer wraps coxsim functions by (module, name) and its
count hooks read their arguments and results.  A rename or a changed
signature in the package would otherwise show up only when the benchmark
runs with --trace 1."""

import importlib
import runpy

import coxsim
import coxsim.harness as harness
from pathlib import Path

import numpy as np
import pytest

from coxsim.cli import main
from coxsim.diagnostics import sphere_functional_family
from coxsim.geometry import Disk, Rect
from coxsim.harness import run_validation_suite, stream
from coxsim.pointprocess import CoupledBatch, ModelParams, ReplicateBatch, sample_uniform_sphere

# run_path compiles the file without importing it as a module, so no
# bytecode cache is written next to it
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1]
                             / "perfbench" / "tracing.py"))


@pytest.mark.parametrize("module,func", [(m, f) for m, f, _ in TRACING["LAYERS"]])
def test_layer_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"coxsim.{module}"), func, None))


def _rng(idx=0):
    return stream(99, 0, 0, idx)


def _sphere_batch(reps, rng):
    return ReplicateBatch.stack([sample_uniform_sphere(rng, int(k))
                                 for k in rng.poisson(2.0, reps)])


def _sphere_ppp(reps, rng):
    """reps PPPs of intensity 2 nu on the sphere: Poisson(2) counts, then one
    draw of all the uniform points."""
    counts = rng.poisson(2.0, reps)
    return ReplicateBatch(sample_uniform_sphere(rng, int(counts.sum())),
                          np.repeat(np.arange(reps), counts), reps)


FAMILY = sphere_functional_family()
TINY = 2000   # every check section at its floor


def _failed(rows):
    return {"harness.check_rows_failed": float(sum(not r.passed for r in rows))}


# (module, function) -> (positional args, expected counters from the result)
CASES = {
    ("coxmodels", "sample_cox_line"): (
        (ModelParams.planar(1.0, 20.0), Disk((0.0, 0.0), 1.0), _rng(1)),
        lambda s: {"coxmodels.points": float(len(s.points)),
                   "coxmodels.lines": float(s.lines.shape[0])}),
    ("coxmodels", "sample_satellites_with_twin"): (
        (ModelParams.spherical(2.0, 7), _rng(2)),
        lambda r: {"coxmodels.satellite_points": float(r[0].points.shape[0]),
                   "coxmodels.orbits": float(r[0].orbits.shape[0])}),
    ("pointprocess", "ppp_batch"): (
        (Rect(0.0, 0.0, 1.0, 1.0), 2.0, 50, _rng(3)),
        lambda r: {"pointprocess.batch_points": float(r[0].sum())}),
    ("diagnostics", "wasserstein_lower_bound"): (
        (_sphere_batch(40, _rng(4)), _sphere_ppp, FAMILY, _rng(5), 3),
        lambda r: {"diagnostics.functional_evals": 40.0 * (1 + 3) * len(FAMILY)}),
    ("diagnostics", "coupled_wasserstein_lower_bound"): (
        (CoupledBatch(_sphere_batch(30, _rng(6)), _sphere_batch(30, _rng(7))), FAMILY),
        lambda r: {"diagnostics.functional_evals": 30.0 * 2 * len(FAMILY)}),
    ("steinbound", "chord_square_integral"): (
        (Disk((0.0, 0.0), 1.0),),
        lambda r: {"steinbound.quad_error_max": r[1]}),
    ("steinbound", "coarea_check"): (
        (Rect(0.0, 0.0, 1.0, 1.0), 0.0),
        lambda r: {"steinbound.quad_error_max": r.error_estimate}),
    ("harness", "check_mecke"): ((0, TINY), _failed),
    ("harness", "check_invariance"): ((0, TINY), _failed),
    ("harness", "check_glauber"): ((0, TINY), _failed),
    ("harness", "check_coarea"): ((0,), _failed),
    ("harness", "check_bounds"): ((0,), _failed),
}

def test_all_calls_each_timed_group_in_order(monkeypatch):
    # untraced runs take max_unit_s from the harness.check_<group> wrappers,
    # so "all" must reach every group through the module attribute
    calls = []

    def recorder(group):
        return lambda *args: calls.append(group) or []

    for group in TRACING["CHECK_GROUPS"]:
        monkeypatch.setattr(harness, f"check_{group}", recorder(group))
    assert run_validation_suite(0, TINY, "all") == []
    assert calls == list(TRACING["CHECK_GROUPS"])


HOOKED = [(m, f, hook) for m, f, hook in TRACING["LAYERS"] if hook is not None]


def test_every_hook_has_a_case():
    assert {(m, f) for m, f, _ in HOOKED} == set(CASES)


@pytest.mark.parametrize("module,func,hook", HOOKED,
                         ids=[f"{m}.{f}" for m, f, _ in HOOKED])
def test_hook_reads_real_call(module, func, hook):
    args, expected = CASES[(module, func)]
    result = getattr(importlib.import_module(f"coxsim.{module}"), func)(*args)
    counters = TRACING["Counters"]()
    hook(counters, result, *args)
    assert dict(counters) == expected(result)


@pytest.mark.parametrize("ref_factor", [None, 2])
def test_uncoupled_evals_match_reference_draws(ref_factor):
    # the hook's count is reps * (1 + ref_factor) * len(family): the real
    # estimator requests ref_factor * reps reference replicates, and its
    # default ref_factor is the hook's
    draws = []

    def sampler(reps, rng):
        draws.append(reps)
        return _sphere_ppp(reps, rng)

    args = (_sphere_batch(20, _rng(8)), sampler, FAMILY, _rng(9))
    args += () if ref_factor is None else (ref_factor,)
    module = importlib.import_module("coxsim.diagnostics")
    result = module.wasserstein_lower_bound(*args)
    counters = TRACING["Counters"]()
    dict((f, h) for _, f, h in HOOKED)["wasserstein_lower_bound"](counters, result, *args)
    assert counters["diagnostics.functional_evals"] == (20 + sum(draws)) * len(FAMILY)
    assert sum(draws) == 20 * (ref_factor or 4)


@pytest.mark.parametrize("module, func, argv", [
    ("steinbound", "cox_bound", ["bound", "cox-line", "--lam", "10"]),
    ("coxmodels", "effective_intensity", None),
    ("pointprocess", "region_counts", None)])
def test_traced_layer_sees_model_calls(monkeypatch, module, func, argv):
    # the tracer replaces a function in every coxsim namespace that holds it,
    # so a caller that kept its own reference (say, a field of a model
    # record) would run untraced and its layer would read 0 s
    original = getattr(importlib.import_module(f"coxsim.{module}"), func)
    calls = []

    def spy(*args, **kwargs):
        calls.append(func)
        return original(*args, **kwargs)

    for ns in [coxsim] + [importlib.import_module(f"coxsim.{m}") for m in TRACING["MODULES"]]:
        for attr, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, attr, spy)
    harness.run_sweep_point(harness.ExperimentConfig("cox-line", reps=1000), 0, 10.0)
    assert calls
    if argv:
        calls.clear()
        assert main(argv) == 0
        assert calls
