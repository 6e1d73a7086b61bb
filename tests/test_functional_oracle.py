"""Batch evaluation of the preset functionals, the Glauber generator and the
contraction estimate against a scalar oracle that counts one configuration
(point array) at a time with oracles.count_in."""

import math
import tracemalloc

import numpy as np
import pytest

from coxsim import diagnostics
from coxsim.diagnostics import (ClosePair, Functional, _max_pair_dot, glauber_functionals,
                                mecke_functionals, planar_functional_family,
                                sphere_functional_family)
from coxsim.geometry import Disk, Rect
from coxsim.glauber import GlauberSpec, contraction_estimate, generator_apply, semigroup_sample
from coxsim.harness import stream
from coxsim.pointprocess import ReplicateBatch, sample_uniform_sphere
from oracles import count_in, plane_points, plus, region_point, sphere_points, split

RECT = Rect(0.0, 0.0, 1.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


def rng_for(idx, seed=4242):
    return stream(seed, 0, 0, idx)


def scalar_value(F, pts: np.ndarray) -> float:
    """F on one configuration, from count_in and the kernel's definition."""
    if isinstance(F, ClosePair):
        if len(pts) < 2:
            return 0.0
        dots = pts @ pts.T
        iu = np.triu_indices(len(pts), k=1)
        return float(np.any(np.abs(dots[iu]) >= F.threshold))
    counts = [count_in(pts, r) for r in F.regions]
    kind, kw = F.h.func.__name__, F.h.keywords
    if kind == "_capped":
        return float(min(counts[0], kw["cap"]))
    if kind == "_in_set":
        return float(counts[0] in kw["values"])
    assert kind == "_at_least", kind
    return float(all(c >= k for c, k in zip(counts, kw["ks"])))


def assert_batch_matches(functionals, configs):
    batch = ReplicateBatch.stack(configs)
    assert len(batch) == len(configs)
    for F in functionals:
        expect = np.array([scalar_value(F, c) for c in configs])
        got = F(batch)
        assert got.dtype == np.float64 and got.shape == expect.shape, F.name
        assert np.array_equal(got, expect), F.name


def moved_sums(F, moved_configs) -> np.ndarray:
    """Per replicate, the sum of F over its list of moved configurations."""
    return np.array([sum(scalar_value(F, c) for c in configs) for configs in moved_configs],
                    dtype=float)


def planar_configs(window, boundary, rng):
    """Empty replicates (one trailing), duplicates, boundary points, random."""
    inside = window.uniform(40, rng)
    empty = plane_points([])
    configs = [empty, plane_points(boundary), plane_points([boundary[0]] * 3), empty]
    configs += [np.vstack([boundary[k % len(boundary)], inside[k:k + k % 7]])
                for k in range(30)]
    configs += [inside[:1], np.vstack([inside[:5], inside[:5]]), empty]
    return configs


RECT_BOUNDARY = [[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.25, 0.75],
                 [0.75, 0.25], [1.0, 0.5], [0.5, 0.25]]
DISK_BOUNDARY = [[1.0, 0.0], [0.0, -1.0], [0.5, 0.0], [0.0, 0.75], [0.0, 0.0],
                 [-0.5, 0.0], [1 / math.sqrt(2.0), 0.0], [0.0, 0.5 / math.sqrt(2.0)]]


@pytest.mark.parametrize("window,boundary", [(RECT, RECT_BOUNDARY), (DISK, DISK_BOUNDARY)])
def test_planar_presets(window, boundary):
    functionals = (planar_functional_family(window) + glauber_functionals(window)
                   + [mf.h for mf in mecke_functionals(window)])
    assert_batch_matches(functionals, planar_configs(window, boundary, rng_for(0)))


@pytest.mark.parametrize("window,boundary", [(RECT, RECT_BOUNDARY), (DISK, DISK_BOUNDARY)])
def test_moved_matches_plus_and_delete(window, boundary):
    # every count preset, summed over each point of a ragged batch removed
    # from its own replicate (sign -1) and over boundary and inside points
    # added to replicates that may be empty (sign 1)
    functionals = (planar_functional_family(window) + glauber_functionals(window)
                   + [F for mf in mecke_functionals(window) for F in (mf.g, mf.h)])
    configs = planar_configs(window, boundary, rng_for(0))
    base = ReplicateBatch.stack(configs)
    extra = [plane_points(boundary[:k % 3]) for k in range(len(configs))]
    extra[5] = window.uniform(4, rng_for(1))
    added = ReplicateBatch.stack(extra)
    minus_one = [[np.delete(c, i, axis=0) for i in range(len(c))] for c in configs]
    plus_one = [[plus(c, x) for x in pts] for c, pts in zip(configs, extra)]
    for F in functionals:
        for got, expect_configs in ((F.moved(base, base, -1), minus_one),
                                    (F.moved(base, added), plus_one)):
            expect = moved_sums(F, expect_configs)
            assert got.dtype == np.float64 and np.array_equal(got, expect), F.name


def test_sphere_preset_with_pairs_at_threshold():
    e1 = [1.0, 0.0, 0.0]

    def partner(dot):
        # unit-norm partner of e1 whose dot product with e1 is exactly dot
        return [dot, math.sqrt(1.0 - dot * dot), 0.0]

    rows = [[]]
    for thr in (0.99, 0.999):
        below = np.nextafter(thr, 0.0)
        rows += [[e1, partner(thr)], [e1, partner(-thr)],
                 [e1, partner(below)], [e1, partner(-below)],
                 [partner(thr), e1, [0.0, 0.0, 1.0]]]
    rows += [[e1, e1], [[0.0, 0.0, 1 / 3], [0.0, 0.6, 0.8]],
             [[0.0, 0.8, 0.6], [0.0, -0.8, -0.6], [0.0, 0.0, 2 / 3]]]
    configs = [sphere_points(r) for r in rows]
    rng = rng_for(1)
    configs += [sample_uniform_sphere(rng, int(k)) for k in rng.integers(0, 9, 60)]
    configs.append(sphere_points([]))
    assert_batch_matches(sphere_functional_family(), configs)


CLOSE = [F for F in sphere_functional_family() if isinstance(F, ClosePair)]


@pytest.mark.parametrize("window", [RECT, DISK])
def test_every_member_is_a_count_functional_or_a_close_pair(window):
    members = (planar_functional_family(window) + sphere_functional_family()
               + glauber_functionals(window)
               + [F for mf in mecke_functionals(window) for F in (mf.g, mf.h)])
    for F in members:
        assert (isinstance(F, Functional) and callable(F.h)) or isinstance(F, ClosePair), F
    assert [F.name for F in members if isinstance(F, ClosePair)] == [
        "1{close-pair|dot|>=0.99}", "1{close-pair|dot|>=0.999}"]
    # a close pair has no point move: one is not a count of regions
    assert not hasattr(CLOSE[0], "moved") and not hasattr(CLOSE[0], "membership")


def test_sphere_moved_matches_plus_and_delete():
    # every count member of the satellite family, as the planar test above
    functionals = [F for F in sphere_functional_family() if isinstance(F, Functional)]
    assert len(functionals) == len(sphere_functional_family()) - len(CLOSE)
    rng = rng_for(5)
    configs = [sample_uniform_sphere(rng, int(k)) for k in rng.integers(0, 9, 60)]
    configs += [sphere_points([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
                sphere_points([])]
    base = ReplicateBatch.stack(configs)
    extra = [sample_uniform_sphere(rng, k % 3) for k in range(len(configs))]
    added = ReplicateBatch.stack(extra)
    minus_one = [[np.delete(c, i, axis=0) for i in range(len(c))] for c in configs]
    plus_one = [[plus(c, x) for x in pts] for c, pts in zip(configs, extra)]
    for F in functionals:
        for got, expect_configs in ((F.moved(base, base, -1), minus_one),
                                    (F.moved(base, added), plus_one)):
            expect = moved_sums(F, expect_configs)
            assert got.dtype == np.float64 and np.array_equal(got, expect), F.name


def sphere_configs(rng):
    """Random satellite-like replicates of sizes 0-60, many of each size."""
    sizes = np.concatenate([rng.integers(0, 12, 3000), rng.integers(12, 61, 600)])
    return [sample_uniform_sphere(rng, int(k)) for k in rng.permutation(sizes)]


def test_close_pairs_match_per_configuration_products():
    rng = rng_for(2)
    configs = sphere_configs(rng)
    assert_batch_matches(CLOSE, configs)
    # points in shuffled order: the scan sorts them by replicate (stably),
    # so each replicate is scanned in the order split() returns it
    batch = ReplicateBatch.stack(configs)
    perm = rng.permutation(batch.points.shape[0])
    shuffled = ReplicateBatch(batch.points[perm], batch.rep_ids[perm], len(batch))
    assert np.any(np.diff(shuffled.rep_ids) < 0)
    for F in CLOSE:
        expect = np.array([scalar_value(F, c) for c in split(shuffled)])
        assert np.array_equal(F(shuffled), expect), F.name


def test_close_pair_scan_in_small_blocks(monkeypatch):
    # a block of 50 dots holds at most 12 replicates of size 2 and one
    # replicate of any size over 5, so every size splits into many blocks
    configs = sphere_configs(rng_for(3))
    whole = _max_pair_dot(ReplicateBatch.stack(configs))
    monkeypatch.setattr(diagnostics, "PAIR_BLOCK", 50)
    blocked = ReplicateBatch.stack(configs)
    assert np.array_equal(_max_pair_dot(blocked), whole)
    expect = np.array([np.abs(c @ c.T)[np.triu_indices(len(c), k=1)].max()
                       if len(c) >= 2 else -np.inf for c in configs])
    assert np.array_equal(whole, expect)
    assert_batch_matches(CLOSE, configs)
    for F in CLOSE:
        assert np.array_equal(F(blocked), (whole >= F.threshold).astype(float))


def test_close_pair_scan_memory_is_capped(monkeypatch):
    # 500 replicates of 60 points: one unsplit product is 1.8e6 dots (14 MB);
    # blocks of 36,000 dots keep the scan's peak allocation near the points'
    batch = ReplicateBatch.stack([sample_uniform_sphere(rng_for(4), 60)] * 500)
    monkeypatch.setattr(diagnostics, "PAIR_BLOCK", 36_000)
    tracemalloc.start()
    try:
        _max_pair_dot(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


SPEC = GlauberSpec(RECT, lam=1.5)
OMEGAS = [plane_points([]),
          plane_points([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]]),
          plane_points([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [0.3, 0.3], [0.7, 0.1]])]


OMEGA_BATCH = ReplicateBatch.stack(OMEGAS)
GENERATOR_FAMILY = glauber_functionals(RECT) + planar_functional_family(RECT)


@pytest.fixture(scope="module")
def generator_values():
    return generator_apply(GENERATOR_FAMILY, OMEGA_BATCH, SPEC)


@pytest.mark.parametrize("k", range(len(OMEGAS)))
def test_generator_matches_oracle(k, generator_values):
    # replicate k of one batch against the per-configuration formula: each
    # point's death, then one birth per distinct region R, at region_point(R),
    # weighted by lam |R| (each functional's regions are disjoint, in RECT)
    omega = OMEGAS[k]
    for j, F in enumerate(GENERATOR_FAMILY):
        f0 = scalar_value(F, omega)
        death = 0.0
        for i in range(len(omega)):
            death += scalar_value(F, np.delete(omega, i, axis=0)) - f0
        birth = sum(SPEC.lam * R.measure * (scalar_value(F, plus(omega, region_point(R))) - f0)
                    for R in dict.fromkeys(F.regions))
        assert generator_values[k, j] == pytest.approx(death + birth, rel=0, abs=1e-12), F.name


def test_contraction_matches_oracle():
    omega = OMEGAS[2]
    z = (0.5, 0.5)
    family = glauber_functionals(RECT)
    diffs = contraction_estimate(family, omega, z, 0.7, SPEC, 200, rng_for(20))
    # the shared base draws: one semigroup batch, then one survival coin each
    rng = rng_for(20)
    base = split(semigroup_sample(ReplicateBatch.stack([omega] * 200),
                                  0.7, SPEC, rng))
    survives = rng.random(200) < math.exp(-0.7)
    assert len(diffs) == len(family)
    for F, d in zip(family, diffs):
        expect = [abs(scalar_value(F, plus(pts, z) if keep else pts) - scalar_value(F, pts))
                  for pts, keep in zip(base, survives)]
        np.testing.assert_array_equal(d, expect, err_msg=F.name)
