"""The pattern-grouped point moves against the per-point formula of
tests/oracles.py: Functional.moved, the Mecke point sums and the Glauber
generator give the same arrays, bit for bit, while h sees at most one row per
replicate and check_mecke's peak allocation stays bounded."""

import tracemalloc

import numpy as np
import pytest

from coxsim.diagnostics import (count_at_least, glauber_functionals, mecke_check_bpp,
                                mecke_check_ppp, mecke_functionals, planar_functional_family,
                                raw_count, truncated_count)
from coxsim.geometry import Disk, Rect
from coxsim.glauber import GlauberSpec, generator_apply
from coxsim.harness import check_mecke, stream
from coxsim.pointprocess import ReplicateBatch
from oracles import generator_reference, moved_reference, plane_points, point_sums_reference

RECT = Rect(0.0, 0.0, 1.0, 1.0)
A, B = RECT.halves()
# 0, 1 and 2 regions, a region listed twice, and a g whose region F lacks
FUNCTIONALS = [count_at_least(), truncated_count(A, 2), raw_count(B),
               count_at_least((A, 1), (B, 1)), count_at_least((A, 1), (A, 2))]
G = [None, count_at_least(), count_at_least((A, 1)), count_at_least((B, 1))]


def rng_for(idx):
    return stream(7, 0, 0, idx)


# two points on the line x = 0.5, in both closed halves, then a corner of A
EDGE = plane_points([[0.5, 0.25], [0.5, 0.5], [0.0, 0.0]])


def ragged_batch(rng, reps=40):
    """Replicates of 0-9 points, every fifth one empty, the others with up to
    three points of EDGE."""
    return ReplicateBatch.stack([plane_points([]) if j % 5 == 0 else
                                 np.vstack([RECT.uniform(j % 7, rng), EDGE[:j % 4]])
                                 for j in range(reps)])


@pytest.fixture(scope="module")
def batches():
    base = ragged_batch(rng_for(0))
    other = ragged_batch(rng_for(1))   # births: a batch that is not base
    assert A.contains(EDGE).all() and B.contains(EDGE[:2]).all()
    assert np.any(base.counts() == 0) and np.any(other.counts() == 0)
    return base, other


@pytest.mark.parametrize("F", FUNCTIONALS, ids=lambda F: F.name)
@pytest.mark.parametrize("g", G, ids=lambda g: "g=none" if g is None else f"g={g.name}")
@pytest.mark.parametrize("sign", [1, -1])
def test_moved_equals_per_point_formula(batches, F, g, sign):
    base, other = batches
    for points in ((base, other) if sign == 1 else (base,)):
        got = F.moved(base, points, sign, g)
        assert got.dtype == np.float64
        assert np.array_equal(got, moved_reference(F, base, points, sign, g)), F.name


@pytest.mark.parametrize("window", [RECT, Disk((0.0, 0.0), 1.0)], ids=["rect", "disk"])
def test_point_sums_equal_per_point_formula(window, monkeypatch):
    # the left sides of both Mecke kernels, Phi their first draw, then of the
    # PPP kernel with the ragged batch in place of its draw
    mfs = mecke_functionals(window)
    ragged = ragged_batch(rng_for(3))
    cases = [(mecke_check_ppp, 3.0, ReplicateBatch.ppp(window, 3.0, 300, rng_for(2))),
             (mecke_check_bpp, 4, ReplicateBatch.bpp(window, 4, 300, rng_for(2))),
             (mecke_check_ppp, 3.0, ragged)]
    for check, arg, phi in cases:
        if phi is ragged:
            monkeypatch.setattr(ReplicateBatch, "ppp", lambda *args: ragged)
        got, expect = check(mfs, arg, window, len(phi), rng_for(2)), point_sums_reference(mfs, phi)
        for mf, a, b in zip(mfs, got, expect):
            assert np.array_equal(a, b), mf.name


def test_generator_equals_per_point_formula(batches):
    spec = GlauberSpec(RECT, lam=1.5)
    family = glauber_functionals(RECT) + planar_functional_family(RECT) + FUNCTIONALS
    for omegas in (batches[0], ReplicateBatch.ppp(RECT, 1.5, 200, rng_for(4))):
        got = generator_apply(family, omegas, spec, rng_for(5))
        expect = generator_reference(family, omegas, spec, rng_for(5))
        assert np.array_equal(got, expect)


def spied(F, rows):
    """F with h recording the row count of every matrix it is given."""
    h = F.h
    return F.replace(h=lambda counts: rows.append(len(counts)) or h(counts))


def test_h_sees_at_most_one_row_per_replicate():
    # the per-point formula gives h one row per point: 3 per replicate here
    reps, rows = 300, []
    mfs = [mf.replace(g=spied(mf.g, rows), h=spied(mf.h, rows))
           for mf in mecke_functionals(RECT)]
    mecke_check_ppp(mfs, 3.0, RECT, reps, rng_for(6))
    family = [spied(F, rows) for F in glauber_functionals(RECT)]
    generator_apply(family, ReplicateBatch.ppp(RECT, 3.0, reps, rng_for(7)),
                    GlauberSpec(RECT, lam=3.0), rng_for(8))
    assert rows and max(rows) <= reps


def test_check_mecke_peak_bytes_per_replicate():
    # the per-point formula peaked at 312 bytes a replicate, its point-sum
    # temporaries over the BPP batch's 144
    reps = 20_000
    check_mecke(0, 2000)   # imports and first-call caches outside the count
    tracemalloc.start()
    try:
        check_mecke(0, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / reps < 260
