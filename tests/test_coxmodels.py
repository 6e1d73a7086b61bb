import math

import numpy as np
import pytest

from coxsim.coxmodels import (effective_intensity, resample_marks,
                              sample_cox_line, sample_satellites,
                              sample_satellites_with_twin)
from coxsim.geometry import Disk, Rect, support_radius
from coxsim.pointprocess import ModelParams, RngStream, config_tv_distance
from coxsim.diagnostics import empirical_count_tv


def rng_for(idx, seed=4242):
    return RngStream(seed, idx).generator()


UNIT_DISK = Disk((0.0, 0.0), 1.0)


class TestCoxLine:
    def test_zero_mark_intensity(self):
        # degenerate c = 0: lines may exist but carry no points
        params = ModelParams(lambda_n=8.0, mu_n=0.0, c=0.0, n=1)
        for i in range(5):
            s = sample_cox_line(params, UNIT_DISK, rng_for(i))
            assert len(s.points) == 0

    def test_points_in_window_and_collinear(self):
        params = ModelParams.planar(5.0, 10.0)   # mu = 0.5, plenty of points
        s = sample_cox_line(params, UNIT_DISK, rng_for(10))
        assert len(s.points) > 0
        assert UNIT_DISK.contains(s.points.points).all()
        r, theta = s.lines[:, 0], s.lines[:, 1]
        for p in s.points.points:
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
        assert abs(ns.mean() - 2.0 * window.area / 2.0) < 3 * se

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
        # truncating lines at support_radius vs twice that radius gives
        # statistically identical clipped point counts
        params = ModelParams.planar(1.0, 10.0)
        reps = 20_000
        rng = rng_for(24)
        rs = support_radius(UNIT_DISK)
        n1 = np.array([len(sample_cox_line(params, UNIT_DISK, rng).points)
                       for _ in range(reps)])
        n2 = np.array([len(sample_cox_line(params, UNIT_DISK, rng,
                                           r_max=2.0 * rs).points)
                       for _ in range(reps)])
        tv = empirical_count_tv(n1, n2)
        assert tv < 2.0 / math.sqrt(reps) * 1.5

    def test_conditional_marks_poisson(self):
        # Cox defining property: given the lines, counts on disjoint chord
        # segments are independent Poissons
        params = ModelParams.planar(1.0, 2.0)  # mu = 0.5 per unit length
        base = None
        for i in range(200):  # find a sample whose first line has a long chord
            cand = sample_cox_line(params, UNIT_DISK, rng_for(30 + i))
            if cand.hits.any():
                order = np.argsort(~cand.hits)  # hit lines first
                length = cand.intervals[order[0], 1] - cand.intervals[order[0], 0]
                if length > 1.2:
                    base = cand
                    line_idx = order[0]
                    break
        assert base is not None
        s_lo, s_hi = base.intervals[line_idx]
        mid = 0.5 * (s_lo + s_hi)
        r, theta = base.lines[line_idx]
        ct, st = math.cos(theta), math.sin(theta)

        def seg_count(sample, a, b):
            pts = sample.points.points
            if pts.shape[0] == 0:
                return 0
            on_line = np.abs(pts[:, 0] * ct + pts[:, 1] * st - r) < 1e-9
            s = -pts[:, 0] * st + pts[:, 1] * ct
            return int((on_line & (s >= a) & (s < b)).sum())

        rng = rng_for(600)
        reps = 8000
        c1 = np.empty(reps)
        c2 = np.empty(reps)
        for k in range(reps):
            res = resample_marks(base, rng)
            c1[k] = seg_count(res, s_lo, mid)
            c2[k] = seg_count(res, mid, s_hi)
        for c, a, b in ((c1, s_lo, mid), (c2, mid, s_hi)):
            mean_expect = params.mu_n * (b - a)
            se = c.std(ddof=1) / math.sqrt(reps)
            assert abs(c.mean() - mean_expect) < 3 * se
            # Poisson: variance equals mean
            var_se = np.std((c - c.mean()) ** 2, ddof=1) / math.sqrt(reps)
            assert abs(c.var(ddof=1) - mean_expect) < 4 * var_se
        corr = np.corrcoef(c1, c2)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(reps)

    def test_resample_marks_keeps_lines(self):
        params = ModelParams.planar(1.0, 5.0)
        s = sample_cox_line(params, UNIT_DISK, rng_for(40))
        t = resample_marks(s, rng_for(41))
        assert np.array_equal(s.lines, t.lines)
        assert UNIT_DISK.contains(t.points.points).all() or len(t.points) == 0

    def test_coupling_enforced(self):
        bad = ModelParams(lambda_n=5.0, mu_n=0.3, c=1.0, n=1)
        with pytest.raises(ValueError):
            sample_cox_line(bad, UNIT_DISK, rng_for(42))


class TestSatellites:
    def test_single_dense_orbit(self):
        params = ModelParams.spherical(200.0, 1)
        s = sample_satellites(params, rng_for(50))
        assert len(s.points) > 100
        x = s.orbits[0]
        assert np.abs(s.points.points @ x).max() <= 1e-9

    def test_mean_total_count(self):
        params = ModelParams.spherical(3.0, 7)
        rng = rng_for(51)
        ns = np.array([len(sample_satellites(params, rng).points)
                       for _ in range(4000)])
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        assert abs(ns.mean() - 3.0) < 3 * se

    def test_orthogonality_invariant(self):
        params = ModelParams.spherical(20.0, 10)
        s = sample_satellites(params, rng_for(52))
        dots = np.abs(s.points.points @ s.orbits.T)
        assert (dots.min(axis=1) <= 1e-9).all()

    def test_rotation_invariance_bands(self):
        # one large sample: latitude band counts match the uniform measure
        params = ModelParams.spherical(10_000.0, 10_000)
        s = sample_satellites(params, rng_for(53))
        cuts = np.linspace(-1.0, 1.0, 7)
        z = s.points.points[:, 2]
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
            ns = np.array([len(sample_satellites(params, rng).points)
                           for _ in range(4000)])
            means.append((ns.mean(), ns.std(ddof=1) / math.sqrt(ns.size)))
        (m1, s1), (m2, s2) = means
        assert abs(m2 - 2.0 * m1) < 3 * math.sqrt((2 * s1) ** 2 + s2 ** 2)

    def test_coupling_enforced(self):
        bad = ModelParams(lambda_n=5.0, mu_n=0.3, c=1.0, n=5)
        with pytest.raises(ValueError):
            sample_satellites(bad, rng_for(55))


class TestSatelliteTwin:
    def test_model_draw_matches_sample_satellites(self):
        # the twin sampler's model member is the sample_satellites draw
        for c, n, idx in ((2.0, 10, 80), (30.0, 4, 81), (0.5, 40, 82)):
            params = ModelParams.spherical(c, n)
            a = sample_satellites(params, rng_for(idx))
            b, _ = sample_satellites_with_twin(params, rng_for(idx))
            assert np.array_equal(a.orbits, b.orbits)
            assert np.array_equal(a.points.points, b.points.points)

    def test_twin_equals_sample_without_multi_orbits(self):
        # with tiny mu the twin should usually coincide with the sample
        params = ModelParams.spherical(0.05, 50)
        same = 0
        for i in range(50):
            s, twin = sample_satellites_with_twin(params, rng_for(60 + i))
            if config_tv_distance(s.points, twin) == 0:
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
            zs.extend(twin.points[:, 2])
        totals = np.array(totals)
        zs = np.array(zs)
        oracle = rng.poisson(2.0, 6000)   # same-law reference draw
        assert empirical_count_tv(totals, oracle) < 2.0 / math.sqrt(6000) * 1.5
        assert abs(zs.mean()) < 4 * zs.std(ddof=1) / math.sqrt(zs.size)
        z2 = zs ** 2
        assert abs(z2.mean() - 1.0 / 3.0) < 4 * z2.std(ddof=1) / math.sqrt(zs.size)


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
        assert abs(ns.mean() - 0.5 * window.area) < 4 * se


class TestEffectiveIntensity:
    def test_satellites_exact_mean(self):
        params = ModelParams.spherical(3.0, 4)
        rng = rng_for(80)
        counts = [len(sample_satellites(params, rng).points) for _ in range(5000)]
        val, se = effective_intensity(counts, 1.0)
        assert abs(val - 3.0) < 3 * se

    def test_cox_line_half_c(self):
        params = ModelParams.planar(1.0, 20.0)
        rng = rng_for(81)
        counts = [len(sample_cox_line(params, UNIT_DISK, rng).points)
                  for _ in range(5000)]
        val, se = effective_intensity(counts, UNIT_DISK.area)
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
