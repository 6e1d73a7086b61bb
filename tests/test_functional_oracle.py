"""Batch evaluation of the preset functionals against a scalar oracle that
counts one configuration at a time with Configuration.count_in."""

import math

import numpy as np
import pytest

from coxsim.diagnostics import (glauber_functionals, mecke_functionals,
                                planar_functional_family, sphere_functional_family)
from coxsim.geometry import Disk, Rect
from coxsim.glauber import (GlauberSpec, contraction_estimate, generator_apply,
                            semigroup_sample)
from coxsim.pointprocess import (PLANE, SPHERE, Configuration, ReplicateBatch,
                                 RngStream, sample_uniform_sphere, superpose,
                                 uniform_in_window)

RECT = Rect(0.0, 0.0, 1.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


def rng_for(idx, seed=4242):
    return RngStream(seed, idx).generator()


def scalar_value(F, cfg: Configuration) -> float:
    """F on one configuration, from count_in and the kernel's definition."""
    if F.pair_threshold is not None:
        pts = cfg.points
        if len(pts) < 2:
            return 0.0
        dots = pts @ pts.T
        iu = np.triu_indices(len(pts), k=1)
        return float(np.any(np.abs(dots[iu]) >= F.pair_threshold))
    counts = [cfg.count_in(r) for r in F.regions]
    kind, kw = F.h.func.__name__, F.h.keywords
    if kind == "_capped":
        return float(min(counts[0], kw["cap"]))
    if kind == "_in_set":
        return float(counts[0] in kw["values"])
    assert kind == "_at_least", kind
    return float(all(c >= k for c, k in zip(counts, kw["ks"])))


def plus(cfg, x):
    return superpose(cfg, Configuration([x], cfg.space))


def assert_batch_matches(functionals, configs, space):
    batch = ReplicateBatch.stack([c.points for c in configs], space)
    assert len(batch) == len(configs)
    for F in functionals:
        expect = np.array([scalar_value(F, c) for c in configs])
        got = F(batch)
        assert got.dtype == np.float64 and got.shape == expect.shape, F.name
        assert np.array_equal(got, expect), F.name


def planar_configs(window, boundary, rng):
    """Empty replicates (one trailing), duplicates, boundary points, random."""
    cfg = lambda pts: Configuration(np.asarray(pts, dtype=float).reshape(-1, 2), PLANE)
    inside = uniform_in_window(window, 40, rng)
    configs = [cfg([]), cfg(boundary), cfg([boundary[0]] * 3), cfg([])]
    configs += [cfg(np.vstack([boundary[k % len(boundary)], inside[k:k + k % 7]]))
                for k in range(30)]
    configs += [cfg(inside[:1]), cfg(np.vstack([inside[:5], inside[:5]])), cfg([])]
    return configs


RECT_BOUNDARY = [[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.25, 0.75],
                 [0.75, 0.25], [1.0, 0.5], [0.5, 0.25]]
DISK_BOUNDARY = [[1.0, 0.0], [0.0, -1.0], [0.5, 0.0], [0.0, 0.75], [0.0, 0.0],
                 [-0.5, 0.0], [1 / math.sqrt(2.0), 0.0], [0.0, 0.5 / math.sqrt(2.0)]]


@pytest.mark.parametrize("window,boundary", [(RECT, RECT_BOUNDARY), (DISK, DISK_BOUNDARY)])
def test_planar_presets(window, boundary):
    functionals = (planar_functional_family(window) + glauber_functionals(window)
                   + [mf.h for mf in mecke_functionals(window)])
    assert_batch_matches(functionals, planar_configs(window, boundary, rng_for(0)), PLANE)


def test_sphere_preset_with_pairs_at_threshold():
    cfg = lambda pts: Configuration(np.asarray(pts, dtype=float).reshape(-1, 3), SPHERE)
    e1 = [1.0, 0.0, 0.0]

    def partner(dot):
        # unit-norm partner of e1 whose dot product with e1 is exactly dot
        return [dot, math.sqrt(1.0 - dot * dot), 0.0]

    configs = [cfg([])]
    for thr in (0.99, 0.999):
        below = np.nextafter(thr, 0.0)
        configs += [cfg([e1, partner(thr)]), cfg([e1, partner(-thr)]),
                    cfg([e1, partner(below)]), cfg([e1, partner(-below)]),
                    cfg([partner(thr), e1, [0.0, 0.0, 1.0]])]
    configs += [cfg([e1, e1]), cfg([[0.0, 0.0, 1 / 3], [0.0, 0.6, 0.8]]),
                cfg([[0.0, 0.8, 0.6], [0.0, -0.8, -0.6], [0.0, 0.0, 2 / 3]])]
    rng = rng_for(1)
    configs += [cfg(sample_uniform_sphere(rng, int(k))) for k in rng.integers(0, 9, 60)]
    configs.append(cfg([]))
    assert_batch_matches(sphere_functional_family(), configs, SPHERE)


def test_close_pairs_match_per_configuration_products():
    # random satellite-like replicates of many sizes, in one batch
    rng = rng_for(2)
    configs = [Configuration(sample_uniform_sphere(rng, int(k)), SPHERE)
               for k in rng.integers(0, 12, 3000)]
    close = [F for F in sphere_functional_family() if F.pair_threshold is not None]
    assert_batch_matches(close, configs, SPHERE)


SPEC = GlauberSpec(RECT, lam=1.5)
OMEGAS = [Configuration.empty(PLANE),
          Configuration([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]], PLANE),
          Configuration([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [0.3, 0.3], [0.7, 0.1]],
                        PLANE)]


@pytest.mark.parametrize("k", range(len(OMEGAS)))
def test_generator_matches_oracle(k):
    omega = OMEGAS[k]
    for j, F in enumerate(glauber_functionals(RECT) + planar_functional_family(RECT)):
        val, se = generator_apply(F, omega, SPEC, 16, rng_for(10 + j))
        # the per-configuration formula on the same antithetic points
        f0 = scalar_value(F, omega)
        death = 0.0
        for i in range(len(omega)):
            less = Configuration(np.delete(omega.points, i, axis=0), PLANE)
            death += scalar_value(F, less) - f0
        # the antithetic pairs: uniform points and their reflections
        pts = uniform_in_window(RECT, 16, rng_for(10 + j))
        mirrored = np.column_stack([1.0 - pts[:, 0], 1.0 - pts[:, 1]])
        pair_means = np.array([0.5 * ((scalar_value(F, plus(omega, a)) - f0)
                                      + (scalar_value(F, plus(omega, b)) - f0))
                               for a, b in zip(pts, mirrored)])
        expect = death + SPEC.birth_rate * pair_means.mean()
        expect_se = SPEC.birth_rate * pair_means.std(ddof=1) / math.sqrt(16)
        assert (val, se) == (expect, expect_se), F.name


def test_contraction_matches_oracle():
    omega = OMEGAS[2]
    z = (0.5, 0.5)
    for j, F in enumerate(glauber_functionals(RECT)):
        est, se = contraction_estimate(F, omega, z, 0.7, SPEC, 200, rng_for(20 + j))
        rng = rng_for(20 + j)
        diffs = []
        for _ in range(200):
            base = semigroup_sample(omega, 0.7, SPEC, rng)
            with_z = plus(base, z) if rng.random() < math.exp(-0.7) else base
            diffs.append(abs(scalar_value(F, with_z) - scalar_value(F, base)))
        diffs = np.array(diffs)
        assert est == diffs.mean(), F.name
        assert se == diffs.std(ddof=1) / math.sqrt(200), F.name
