import math
import time
import tracemalloc

import numpy as np
import pytest

from coxsim import harness
from coxsim.cli import main
from coxsim.coxmodels import (effective_intensity, sample_cox_line, sample_cox_line_batch,
                              sample_satellites_batch, sample_satellites_with_twin)
from coxsim.diagnostics import (ClosePair, empirical_count_tv, poisson_pmf,
                                sphere_region_set)
from coxsim.geometry import Disk, Rect, chord_intervals, orbit_frame
from coxsim.harness import stream
from coxsim.pointprocess import ModelParams, ReplicateBatch, sample_uniform_sphere
from coxsim.steinbound import cox_bound
from oracles import multiset, oracle_cox_line, support_radius


def rng_for(idx, seed=4242):
    return stream(seed, 0, 0, idx)


UNIT_DISK = Disk((0.0, 0.0), 1.0)
OFF_ORIGIN = Rect(3.0, -0.5, 4.0, 0.5)


# ---------------------------------------------------------------------------
# Oracles: one satellite replicate at a time, orbit by orbit (the direct
# cox-line sampler is oracles.oracle_cox_line)
# ---------------------------------------------------------------------------

def oracle_satellites(params, rng):
    """One satellite replicate, orbit by orbit: n uniform orbits carrying
    Poisson(mu_n) uniform points each."""
    orbits = sample_uniform_sphere(rng, params.n)
    marks = rng.poisson(params.mu_n, params.n)
    u, w = orbit_frame(orbits)
    idx = np.repeat(np.arange(params.n), marks)
    phi = rng.uniform(0.0, 2.0 * np.pi, idx.size)
    return np.cos(phi)[:, None] * u[idx] + np.sin(phi)[:, None] * w[idx]


def satellites(params, rng):
    return sample_satellites_with_twin(params, rng)[0]


# ---------------------------------------------------------------------------
# Goodness-of-fit helpers, each at level 0.001
# ---------------------------------------------------------------------------

def chi2_quantile_999(df):
    """0.999 quantile of chi-square(df), Wilson-Hilferty approximation."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + 3.0902 * math.sqrt(a)) ** 3


def g_test_passes(counts, pmf):
    """G-test of integer counts against a pmf, with the upper tail pooled
    so that every bin expects at least 5."""
    n = counts.size
    tail = np.cumsum(pmf[::-1])[::-1]              # P(X >= k)
    k = int(np.flatnonzero(n * tail >= 5.0).max())
    expected = n * np.append(pmf[:k], tail[k])
    observed = np.bincount(np.minimum(counts, k), minlength=k + 1)
    nz = observed > 0
    g = 2.0 * float((observed[nz] * np.log(observed[nz] / expected[nz])).sum())
    return k == 0 or g < chi2_quantile_999(k)


def two_sample_passes(a, b):
    """Chi-square homogeneity test of two integer samples, with the upper
    tail pooled so that every pooled bin holds at least 10."""
    pooled = np.bincount(np.concatenate([a, b]))
    k = int(np.flatnonzero(np.cumsum(pooled[::-1])[::-1] >= 10).max())
    obs = np.array([np.bincount(np.minimum(x, k), minlength=k + 1) for x in (a, b)])
    expected = obs.sum(axis=0) * (np.array([a.size, b.size]) / (a.size + b.size))[:, None]
    stat = float(((obs - expected) ** 2 / expected).sum())
    return k == 0 or stat < chi2_quantile_999(k)


def same_rate(x, y):
    """Two-proportion z-test of two 0/1 samples, |z| below 3.29."""
    p = (x.sum() + y.sum()) / (x.size + y.size)
    se = math.sqrt(p * (1.0 - p) * (1.0 / x.size + 1.0 / y.size))
    return abs(x.mean() - y.mean()) <= 3.29 * se


def line_of_each_point(lines, points):
    """Index of the line each point lies on, walking lines and points in
    step: the batch sampler groups its points by line, in line order."""
    r, theta = lines[:, 0], lines[:, 1]
    on = np.empty(len(points), dtype=np.int64)
    j = 0
    for k, (x, y) in enumerate(points):
        while j < r.size and abs(x * math.cos(theta[j]) + y * math.sin(theta[j]) - r[j]) > 1e-9:
            j += 1
        assert j < r.size, f"point {k} lies on no later line"
        on[k] = j
    return on


def zero_truncated_poisson_pmf(m, kmax):
    """Row i: P(N = k) for k = 1..kmax, N ~ Poisson(m[i]) given N >= 1."""
    k = np.arange(1, kmax + 1)
    log_fact = np.cumsum(np.log(k))
    return (np.exp(k * np.log(m)[:, None] - m[:, None] - log_fact)
            / -np.expm1(-m)[:, None])


class TestCoxLine:
    def test_zero_mark_intensity(self):
        # degenerate c = 0: no line carries a point, so none is returned
        params = ModelParams(lambda_n=8.0, c=0.0, n=1, kind="planar")
        for i in range(5):
            s = sample_cox_line(params, UNIT_DISK, rng_for(i))
            assert len(s.points) == 0 and len(s.lines) == 0

    def test_points_in_window_and_collinear(self):
        params = ModelParams.planar(5.0, 10.0)   # mu = 0.5, plenty of points
        s = sample_cox_line(params, UNIT_DISK, rng_for(10))
        assert len(s.points) > 0
        assert UNIT_DISK.contains(s.points).all()
        r, theta = s.lines[:, 0], s.lines[:, 1]
        for p in s.points:
            # each point lies on one of the sampled lines
            resid = np.abs(p[0] * np.cos(theta) + p[1] * np.sin(theta) - r)
            assert resid.min() < 1e-9

    def test_mean_count_half_area(self):
        # for fixed theta, lines with r >= 0 sweep a half-plane, so the mean
        # measure is (c/2) Leb^2 and E|Y ∩ K| = c * area / 2 = pi/2 for c=1
        for lam, reps, idx in ((10.0, 4000, 20), (100.0, 3000, 21)):
            params = ModelParams.planar(1.0, lam)
            rng = rng_for(idx)
            ns = np.array([len(sample_cox_line(params, UNIT_DISK, rng).points)
                           for _ in range(reps)])
            se = ns.std(ddof=1) / math.sqrt(reps)
            assert abs(ns.mean() - math.pi / 2.0) < 3 * se

    def test_rect_window_mean(self):
        window = Rect(0.0, 0.0, 1.0, 1.0)
        params = ModelParams.planar(2.0, 20.0)
        rng = rng_for(22)
        ns = np.array([len(sample_cox_line(params, window, rng).points)
                       for _ in range(4000)])
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        assert abs(ns.mean() - 2.0 * window.measure / 2.0) < 3 * se

    def test_doubling_c_doubles_counts(self):
        rng = rng_for(23)
        means = []
        for c in (1.0, 2.0):
            params = ModelParams.planar(c, 20.0)
            ns = np.array([len(sample_cox_line(params, UNIT_DISK, rng).points)
                           for _ in range(4000)])
            means.append((ns.mean(), ns.std(ddof=1) / math.sqrt(ns.size)))
        (m1, s1), (m2, s2) = means
        assert abs(m2 - 2.0 * m1) < 3 * math.sqrt((2 * s1) ** 2 + s2 ** 2)

    def test_clipping_exactness(self):
        # the direct sampler truncated at twice support_radius gives
        # statistically identical clipped point counts
        params = ModelParams.planar(1.0, 10.0)
        reps = 20_000
        rng = rng_for(24)
        rs = support_radius(UNIT_DISK)
        n1 = np.array([len(sample_cox_line(params, UNIT_DISK, rng).points)
                       for _ in range(reps)])
        n2 = np.array([len(oracle_cox_line(params, UNIT_DISK, rng, r_max=2.0 * rs)[1])
                       for _ in range(reps)])
        tv = empirical_count_tv(n1, n2)
        assert tv < 2.0 / math.sqrt(reps) * 1.5

    def test_conditional_marks_poisson(self):
        # given its chord length l, each returned line carries a zero-truncated
        # Poisson(mu * l) number of points, i.i.d. uniform on its chord
        for lam, idx in ((0.5, 30), (2.0, 32)):
            params = ModelParams.planar(1.0, lam)
            lines, pair = sample_cox_line_batch(params, UNIT_DISK, 4000, rng_for(idx))
            batch = pair.model
            on = line_of_each_point(lines, batch.points)
            marks = np.bincount(on, minlength=len(lines))
            assert marks.min() >= 1
            s_lo, s_hi = chord_intervals(UNIT_DISK, lines[:, 0], lines[:, 1])
            lengths = s_hi - s_lo
            # independent counts with known pmfs: expect the sum of the pmfs
            pmf = zero_truncated_poisson_pmf(params.mu_n * lengths, 40).mean(axis=0)
            assert g_test_passes(marks - 1, pmf)
            theta = lines[on, 1]
            s = batch.points[:, 1] * np.cos(theta) - batch.points[:, 0] * np.sin(theta)
            u = (s - s_lo[on]) / lengths[on]
            assert np.all((u >= 0.0) & (u <= 1.0))
            assert g_test_passes(np.minimum((10 * u).astype(int), 9), np.full(10, 0.1))

    def test_kind_enforced(self):
        with pytest.raises(ValueError):
            sample_cox_line(ModelParams.spherical(1.0, 5), UNIT_DISK, rng_for(42))

    def test_matches_per_replicate_oracle(self):
        # in law: window counts and point-carrying line counts of the batch
        # sampler against the direct line-by-line sampler
        for lam in (2.0, 20.0):
            for window in (UNIT_DISK, OFF_ORIGIN):
                params = ModelParams.planar(1.0, lam)
                lines, pair = sample_cox_line_batch(params, window, 20_000, rng_for(7))
                batch = pair.model
                on = line_of_each_point(lines, batch.points)
                first = np.flatnonzero(np.diff(on, prepend=-1))   # one point per line
                carrying = np.bincount(batch.rep_ids[first], minlength=len(batch))
                rng = rng_for(8)
                direct = [oracle_cox_line(params, window, rng) for _ in range(10_000)]
                assert two_sample_passes(batch.counts(window),
                                         np.array([len(d[1]) for d in direct])), (lam, window)
                assert two_sample_passes(carrying, np.array([int((d[2] > 0).sum())
                                                             for d in direct])), (lam, window)

    def test_one_replicate_view_is_the_batch_draw(self):
        for window in (UNIT_DISK, OFF_ORIGIN):
            params = ModelParams.planar(2.0, 10.0)
            s = sample_cox_line(params, window, rng_for(9))
            lines, pair = sample_cox_line_batch(params, window, 1, rng_for(9))
            assert np.array_equal(s.lines, lines) and np.array_equal(s.points, pair.model.points)


class TestCoxLineBatchLaw:
    @pytest.mark.parametrize("window, lam", [(UNIT_DISK, 5.0), (OFF_ORIGIN, 5.0),
                                             (UNIT_DISK, 1e6), (OFF_ORIGIN, 1e6)],
                             ids=["window0", "window1", "window0-lam1e6", "window1-lam1e6"])
    def test_count_mean_and_overdispersion(self, window, lam):
        # given the lines the window count is Poisson(mu * total chord), so
        # E N = (c/2)|K| and Var N - E N = mu^2 Var(total chord length)
        # = (c^2 / 2 lambda) G(K), half the bound
        params = ModelParams.planar(1.0, lam)
        reps = 100_000
        _, pair = sample_cox_line_batch(params, window, reps, rng_for(300))
        x = pair.model.counts(window).astype(float)
        mean, var = x.mean(), x.var(ddof=1)
        d = x - mean
        excess_se = float(np.std(d ** 2 - d, ddof=1)) / math.sqrt(reps)
        assert abs(mean - 0.5 * window.measure) < 4 * math.sqrt(var / reps)
        assert abs(var - mean - cox_bound(params, window) / 2.0) < 4 * excess_se

    def test_points_carry_their_lines_replicate(self):
        # lines come in replicate order, each with at least one point, and
        # every point of a line carries that line's replicate id
        params = ModelParams.planar(2.0, 10.0)
        lines, pair = sample_cox_line_batch(params, UNIT_DISK, 50, rng_for(301))
        batch = pair.model
        assert len(batch) == 50 and np.all(np.diff(batch.rep_ids) >= 0)
        on = line_of_each_point(lines, batch.points)
        assert np.array_equal(np.unique(on), np.arange(len(lines)))
        first = np.flatnonzero(np.diff(on, prepend=-1))
        assert np.array_equal(batch.rep_ids, np.repeat(batch.rep_ids[first],
                                                       np.diff(first, append=on.size)))


def kept_only(pair):
    """A planted defect: the cox-line twin without its rejected proposals,
    i.e. only the twin points that are also model points."""
    shared = set(map(tuple, pair.model.points))
    mask = np.array([tuple(p) in shared for p in pair.twin.points], dtype=bool)
    return ReplicateBatch(np.compress(mask, pair.twin.points, axis=0),
                          np.compress(mask, pair.twin.rep_ids), len(pair))


class TestCoxLineTwin:
    # each G-test at level 0.001 against Poisson((c/2)|A|), 10^5 replicates
    CASES = [(UNIT_DISK, UNIT_DISK), (UNIT_DISK, Rect(0.1, 0.1, 0.6, 0.5)),
             (OFF_ORIGIN, OFF_ORIGIN)]

    @pytest.fixture(scope="class")
    def pairs(self):
        params = ModelParams.planar(1.0, 5.0)
        return {window: sample_cox_line_batch(params, window, 100_000, rng_for(320 + k))[1]
                for k, window in enumerate((UNIT_DISK, OFF_ORIGIN))}

    @pytest.mark.parametrize("side", ["twin", "model", "kept only"])
    @pytest.mark.parametrize("window, region", CASES, ids=["disk", "rect-in-disk", "off-origin"])
    def test_twin_counts_poisson(self, pairs, side, window, region):
        # the twin is exactly PPP(c/2) on the window; the model (a twin that
        # keeps every point) and the twin without its rejected proposals are
        # planted defects that the same test rejects
        pair = pairs[window]
        batch = {"twin": pair.twin, "model": pair.model, "kept only": kept_only(pair)}[side]
        pmf, _ = poisson_pmf(0.5 * region.measure)
        assert g_test_passes(batch.counts(region), pmf) == (side == "twin")

    def test_twin_shares_one_point_per_line(self):
        # one twin point per proposal: the first point of each kept line in
        # line order, the proposal point itself for the others
        params = ModelParams.planar(2.0, 5.0)
        lines, pair = sample_cox_line_batch(params, UNIT_DISK, 500, rng_for(325))
        first = np.flatnonzero(np.diff(line_of_each_point(lines, pair.model.points),
                                       prepend=-1))
        shared = kept_only(pair)
        assert np.array_equal(shared.points, pair.model.points[first])
        assert np.array_equal(shared.rep_ids, pair.model.rep_ids[first])
        assert np.all(np.diff(pair.twin.rep_ids) >= 0) and len(pair.twin) == 500
        assert UNIT_DISK.contains(pair.twin.points).all()


class TestSatellites:
    def test_single_dense_orbit(self):
        params = ModelParams.spherical(200.0, 1)
        s = satellites(params, rng_for(50))
        assert len(s.points) > 100
        x = s.orbits[0]
        assert np.abs(s.points @ x).max() <= 1e-9

    def test_mean_total_count(self):
        params = ModelParams.spherical(3.0, 7)
        rng = rng_for(51)
        ns = np.array([len(satellites(params, rng).points)
                       for _ in range(4000)])
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        assert abs(ns.mean() - 3.0) < 3 * se

    def test_orthogonality_invariant(self):
        params = ModelParams.spherical(20.0, 10)
        s = satellites(params, rng_for(52))
        dots = np.abs(s.points @ s.orbits.T)
        assert (dots.min(axis=1) <= 1e-9).all()

    def test_rotation_invariance_bands(self):
        # one large sample: latitude band counts match the uniform measure
        params = ModelParams.spherical(10_000.0, 10_000)
        s = satellites(params, rng_for(53))
        cuts = np.linspace(-1.0, 1.0, 7)
        z = s.points[:, 2]
        observed = np.histogram(z, bins=cuts)[0]
        expected = len(s.points) / 6.0
        stat = ((observed - expected) ** 2 / expected).sum()
        # chi-square-ish with clumping inflation; generous fixed threshold
        assert stat < 30.0

    def test_doubling_c(self):
        rng = rng_for(54)
        means = []
        for c in (2.0, 4.0):
            params = ModelParams.spherical(c, 5)
            ns = np.array([len(satellites(params, rng).points)
                           for _ in range(4000)])
            means.append((ns.mean(), ns.std(ddof=1) / math.sqrt(ns.size)))
        (m1, s1), (m2, s2) = means
        assert abs(m2 - 2.0 * m1) < 3 * math.sqrt((2 * s1) ** 2 + s2 ** 2)

    def test_kind_enforced(self):
        with pytest.raises(ValueError):
            satellites(ModelParams.planar(1.0, 5.0), rng_for(55))


class TestSatelliteTwin:
    def test_model_draw_matches_batch_kernel(self):
        # the one-replicate view is the batch kernel's draw at reps = 1
        for c, n, idx in ((2.0, 10, 80), (30.0, 4, 81), (0.5, 40, 82)):
            params = ModelParams.spherical(c, n)
            orbits, pair = sample_satellites_batch(params, 1, rng_for(idx))
            s, twin = sample_satellites_with_twin(params, rng_for(idx))
            assert np.array_equal(orbits, s.orbits)
            assert np.array_equal(pair.model.points, s.points)
            assert np.array_equal(pair.twin.points, twin)

    def test_twin_equals_sample_without_multi_orbits(self):
        # with tiny mu the twin should usually coincide with the sample
        params = ModelParams.spherical(0.05, 50)
        same = 0
        for i in range(50):
            s, twin = sample_satellites_with_twin(params, rng_for(60 + i))
            if multiset(s.points) == multiset(twin):
                same += 1
        assert same >= 45

    def test_twin_total_count_matches(self):
        params = ModelParams.spherical(2.0, 10)
        for i in range(100):
            s, twin = sample_satellites_with_twin(params, rng_for(200 + i))
            assert len(twin) == len(s.points)

    def test_twin_is_uniform_poisson(self):
        # the twin is an exact PPP(c nu): Poisson total, uniform z-coordinate
        params = ModelParams.spherical(2.0, 10)
        rng = rng_for(70)
        totals = []
        zs = []
        for _ in range(6000):
            _, twin = sample_satellites_with_twin(params, rng)
            totals.append(len(twin))
            zs.extend(twin[:, 2])
        totals = np.array(totals)
        zs = np.array(zs)
        oracle = rng.poisson(2.0, 6000)   # same-law reference draw
        assert empirical_count_tv(totals, oracle) < 2.0 / math.sqrt(6000) * 1.5
        assert abs(zs.mean()) < 4 * zs.std(ddof=1) / math.sqrt(zs.size)
        z2 = zs ** 2
        assert abs(z2.mean() - 1.0 / 3.0) < 4 * z2.std(ddof=1) / math.sqrt(zs.size)


REGIONS = dict(sphere_region_set())
BANDS = [f"band_{k}" for k in range(6)]
CAPS = ["cap_n05", "cap_n08", "cap_s05", "cap_s08"]


class TestSatelliteBatchLaw:
    C = 2.0

    @pytest.mark.parametrize("n", [2, 10])
    def test_totals_poisson(self, n):
        _, pair = sample_satellites_batch(ModelParams.spherical(self.C, n), 50_000,
                                          rng_for(400 + n))
        pmf, _ = poisson_pmf(self.C)
        for side in (pair.model, pair.twin):
            assert g_test_passes(side.counts(REGIONS["sphere"]), pmf)

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_twin_band_counts_poisson(self, n):
        # the twin is an exact PPP(c nu), whatever n
        _, pair = sample_satellites_batch(ModelParams.spherical(self.C, n), 50_000,
                                          rng_for(410 + n))
        for name in BANDS:
            band = REGIONS[name]
            assert g_test_passes(pair.twin.counts(band), poisson_pmf(self.C * band.measure)[0])

    @pytest.mark.parametrize("n", [2, 10])
    def test_model_matches_per_orbit_oracle(self, n):
        params = ModelParams.spherical(self.C, n)
        reps = 20_000
        _, pair = sample_satellites_batch(params, reps, rng_for(420 + n))
        rng = rng_for(430 + n)
        oracle = ReplicateBatch.stack([oracle_satellites(params, rng) for _ in range(reps)])
        for name in BANDS + CAPS:
            assert two_sample_passes(pair.model.counts(REGIONS[name]),
                                     oracle.counts(REGIONS[name])), name
        close = ClosePair(0.99)
        assert same_rate(close(pair.model), close(oracle))

    def test_twin_replaces_only_multi_orbit_points(self):
        params = ModelParams.spherical(self.C, 3)
        orbits, pair = sample_satellites_batch(params, 300, rng_for(440))
        model, twin = pair.model.points, pair.twin.points
        assert np.array_equal(pair.model.rep_ids, pair.twin.rep_ids)
        # a point stays iff it is the first point of its orbit in its
        # replicate, in batch order; every other point is redrawn
        on = np.abs(model @ orbits.T) <= 1e-9
        kept = np.all(model == twin, axis=1)
        for j in range(len(pair.model)):
            rows = pair.model.rep_ids == j
            orbit = np.argmax(on[rows], axis=1)
            first = np.zeros(orbit.size, dtype=bool)
            first[np.unique(orbit, return_index=True)[1]] = True
            assert np.array_equal(kept[rows], first)

    def test_band_test_rejects_the_model_as_twin(self):
        # a planted defect: a twin equal to the model fails the G-tests that
        # test_twin_band_counts_poisson[2] passes on the same draw
        _, pair = sample_satellites_batch(ModelParams.spherical(self.C, 2), 50_000,
                                          rng_for(412))
        assert not all(g_test_passes(pair.model.counts(REGIONS[name]),
                                     poisson_pmf(self.C * REGIONS[name].measure)[0])
                       for name in BANDS)

    @pytest.mark.parametrize("n, cost", [(10, 0.3746), (40, 0.0983), (160, 0.02490)])
    def test_coupling_cost(self, n, cost):
        # model and twin differ in the redrawn points, 2 (points - occupied
        # orbits) per replicate, with mean 2 (c - n (1 - e^(-c/n)))
        expected = 2 * (self.C - n * -math.expm1(-self.C / n))
        assert expected == pytest.approx(cost, abs=1e-4)
        reps = 200_000
        orbits, pair = sample_satellites_batch(ModelParams.spherical(self.C, n), reps,
                                               rng_for(450 + n))
        redrawn = np.any(pair.model.points != pair.twin.points, axis=1)
        assert redrawn.sum() == pair.model.points.shape[0] - orbits.shape[0]
        delta = 2.0 * np.bincount(pair.model.rep_ids, redrawn, minlength=reps)
        se = delta.std(ddof=1) / math.sqrt(reps)
        assert abs(delta.mean() - expected) < 3 * se


def unique_row_satellites(params, reps, rng):
    """sample_satellites_batch with its orbits grouped by np.unique over
    (replicate, label) rows, the form the sort-and-scan grouping replaced."""
    rep_ids = np.repeat(np.arange(reps), rng.poisson(params.c, reps))
    labels = rng.integers(0, params.n, rep_ids.size)
    _, first, orbit_of = np.unique(np.column_stack([rep_ids, labels]), axis=0,
                                   return_index=True, return_inverse=True)
    orbit_of = orbit_of.ravel()
    orbits = sample_uniform_sphere(rng, first.size)
    u, w = orbit_frame(orbits)
    phi = rng.uniform(0.0, 2.0 * np.pi, rep_ids.size)
    points = np.cos(phi)[:, None] * u[orbit_of] + np.sin(phi)[:, None] * w[orbit_of]
    twin = points.copy()
    others = np.ones(rep_ids.size, dtype=bool)
    others[first] = False                  # all but each orbit's first point
    twin[others] = sample_uniform_sphere(rng, int(others.sum()))
    return orbits, points, twin, rep_ids


class TestOrbitGrouping:
    @pytest.mark.parametrize("c, n, reps", [(2.0, 1, 500), (2.0, 2, 500),
                                            (2.0, 2 ** 63 - 1, 500), (50.0, 20, 300),
                                            (50.0, 10 ** 6, 50), (1e-12, 5, 100)])
    def test_matches_unique_row_grouping(self, c, n, reps):
        params = ModelParams.spherical(c, n)
        orbits, pair = sample_satellites_batch(params, reps, rng_for(460))
        ref_orbits, points, twin, rep_ids = unique_row_satellites(params, reps, rng_for(460))
        for got, want in ((orbits, ref_orbits), (pair.model.points, points),
                          (pair.twin.points, twin), (pair.model.rep_ids, rep_ids)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if c < 1e-6:
            assert pair.model.points.shape == (0, 3) and orbits.shape == (0, 3)


def blocks_by_hand(seed, point, reps, draw):
    """Blocks of BLOCK_REPS replicates, block b from stream (0, point, b)."""
    size = harness.BLOCK_REPS
    return [draw(min(size, reps - start),
                 stream(seed, 0, point, start // size))
            for start in range(0, reps, size)]


def offset_ids(batches):
    size = harness.BLOCK_REPS
    return np.concatenate([b.rep_ids + size * k for k, b in enumerate(batches)])


class TestBlocks:
    REPS = 2 * harness.BLOCK_REPS + 3

    def _check(self, joined, blocks):
        assert len(joined) == self.REPS
        assert [len(b) for b in blocks] == [harness.BLOCK_REPS] * 2 + [3]
        assert np.all(np.diff(joined.rep_ids) >= 0) and joined.rep_ids.max() < self.REPS
        assert np.array_equal(joined.points, np.concatenate([b.points for b in blocks]))
        assert np.array_equal(joined.rep_ids, offset_ids(blocks))

    def test_cox_line_blocks(self):
        params = ModelParams.planar(1.0, 10.0)

        def draw(size, rng):
            return sample_cox_line_batch(params, UNIT_DISK, size, rng)[1].model

        blocks = harness.model_blocks(5, 2, self.REPS, draw)
        self._check(ReplicateBatch.concat(blocks), blocks_by_hand(5, 2, self.REPS, draw))

    def test_satellite_blocks(self):
        params = ModelParams.spherical(2.0, 7)

        def draw(size, rng):
            return sample_satellites_batch(params, size, rng)[1]

        blocks = harness.model_blocks(5, 3, self.REPS, draw)
        by_hand = blocks_by_hand(5, 3, self.REPS, draw)
        self._check(ReplicateBatch.concat([p.model for p in blocks]),
                    [p.model for p in by_hand])
        self._check(ReplicateBatch.concat([p.twin for p in blocks]),
                    [p.twin for p in by_hand])


class TestLargeN:
    def test_simulate_a_billion_orbits(self, tmp_path):
        # O(c) per replicate: no per-orbit array of length n
        t0 = time.perf_counter()
        code = main(["simulate", "satellites", "--c", "2", "--n", "1000000000",
                     "--out", str(tmp_path)])
        assert code == 0 and time.perf_counter() - t0 < 5.0

    def test_sweep_point_at_a_million_orbits(self):
        cfg = harness.ExperimentConfig("satellites", 2.0, (1e6, 2e6, 4e6, 8e6), 1000, 0)
        row = harness.run_sweep_point(cfg, 0, 1e6)
        # bound_respected is not asserted: the bound, 8e-6, lies far below the
        # empirical TV's noise floor at 1000 reps, so on exact Poisson counts
        # the check reads 0 on about a quarter of the seeds; the coupled
        # estimate resolves gaps that small
        assert row["reps"] == 1000 and math.isfinite(row["eff_intensity"])
        assert row["w_distance"] <= row["bound"] + 3 * row["w_stderr"]

    def test_label_range(self):
        # labels are int64: n up to 2^63 - 1 samples, larger n is refused
        params = ModelParams.spherical(2.0, 2 ** 63 - 1)
        orbits, pair = sample_satellites_batch(params, 500, rng_for(450))
        assert orbits.shape[0] == pair.model.points.shape[0]
        assert np.array_equal(pair.model.points, pair.twin.points)
        with pytest.raises(ValueError):
            ModelParams.spherical(2.0, 2 ** 63)
        assert main(["simulate", "satellites", "--n", str(2 ** 63)]) == 2
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig("satellites", 2.0, (10, 20, 40, 2.0 ** 63), 1000, 0)


class TestLargeLambda:
    def test_simulate_a_billion_lines(self, tmp_path):
        # O(c) per replicate: only the lines that carry points are drawn
        t0 = time.perf_counter()
        code = main(["simulate", "cox-line", "--lam", "1e9", "--out", str(tmp_path)])
        assert code == 0 and time.perf_counter() - t0 < 5.0

    def test_sweep_point_at_a_million_lines(self):
        cfg = harness.ExperimentConfig("cox-line", 1.0, (1e6, 2e6, 4e6, 8e6), 1000, 0,
                                       window=UNIT_DISK)
        row = harness.run_sweep_point(cfg, 0, 1e6)
        # bound_respected is not asserted: the bound, 5.3e-6, lies far below
        # the empirical TV's noise floor at 1000 reps, so on exact Poisson
        # counts the check reads 0 on about a quarter of the seeds
        assert row["reps"] == 1000 and row["bound"] == pytest.approx(16.0 / 3.0 / 1e6)
        assert all(math.isfinite(row[k]) for k in ("w_distance", "tv_distance", "eff_stderr"))
        assert abs(row["eff_intensity"] - 0.5) < 4 * row["eff_stderr"]

    def test_memory_flat_in_lambda(self):
        def peak(lam):
            tracemalloc.start()
            try:
                sample_cox_line_batch(ModelParams.planar(1.0, lam), UNIT_DISK, 256,
                                      rng_for(460))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1e6) <= 2 * peak(10.0)


class TestClosedFormMeanMeasure:
    @pytest.mark.parametrize("window", [Rect(3.0, -0.5, 4.0, 0.5),
                                        Disk((2.0, 1.0), 0.5),
                                        Rect(-1.0, -1.0, 2.0, 0.5)])
    def test_off_origin_windows(self, window):
        # every point lies in the half-plane swept by D(r, theta), r >= 0,
        # for half of the directions, so E N(A) = (c/2)|A| on any window
        params = ModelParams.planar(1.0, 10.0)
        rng = rng_for(90)
        ns = np.array([len(sample_cox_line(params, window, rng).points)
                       for _ in range(4000)])
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        assert abs(ns.mean() - 0.5 * window.measure) < 4 * se


class TestEffectiveIntensity:
    def test_satellites_exact_mean(self):
        params = ModelParams.spherical(3.0, 4)
        rng = rng_for(80)
        counts = [len(satellites(params, rng).points) for _ in range(5000)]
        val, se = effective_intensity(counts, 1.0)
        assert abs(val - 3.0) < 3 * se

    def test_cox_line_half_c(self):
        params = ModelParams.planar(1.0, 20.0)
        rng = rng_for(81)
        counts = [len(sample_cox_line(params, UNIT_DISK, rng).points)
                  for _ in range(5000)]
        val, se = effective_intensity(counts, UNIT_DISK.measure)
        assert abs(val - 0.5) < 3 * se

    def test_zero_marks(self):
        assert effective_intensity(np.zeros(1000, dtype=np.int64), math.pi) == (0.0, 0.0)

    def test_per_unit_measure(self):
        # mean 2, sample sd sqrt(2), stderr 1; both divided by the measure
        val, se = effective_intensity([1, 3], 2.0)
        assert val == 1.0 and se == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_intensity([3], 1.0)
        with pytest.raises(ValueError):
            effective_intensity([1, 2], 0.0)
