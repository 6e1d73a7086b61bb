import dataclasses
import math
import time

import numpy as np
import pytest

from coxsim import harness
from coxsim.cli import main
from coxsim.coxmodels import (effective_intensity, sample_cox_line, sample_cox_line_batch,
                              sample_satellites_batch, sample_satellites_with_twin)
from coxsim.diagnostics import (close_pair_indicator, empirical_count_tv, poisson_pmf,
                                sphere_region_set)
from coxsim.geometry import Disk, Rect, chord_intervals, orbit_frame, support_radius
from coxsim.pointprocess import (ModelParams, ReplicateBatch, RngStream,
                                 composite_index, sample_uniform_sphere)
from coxsim.steinbound import cox_bound
from oracles import multiset


def rng_for(idx, seed=4242):
    return RngStream(seed, idx).generator()


UNIT_DISK = Disk((0.0, 0.0), 1.0)
OFF_ORIGIN = Rect(3.0, -0.5, 4.0, 0.5)


# ---------------------------------------------------------------------------
# Oracles: one replicate at a time, line by line and orbit by orbit
# ---------------------------------------------------------------------------

def place_marks(lines, intervals, mu, rng):
    """Poisson(mu * length) uniform points on each chord, as plane points."""
    r, theta = lines[:, 0], lines[:, 1]
    s_lo, lengths = intervals[:, 0], intervals[:, 1] - intervals[:, 0]
    marks = rng.poisson(mu * lengths) if r.size else np.zeros(0, dtype=np.int64)
    total = int(marks.sum())
    if total == 0:
        return np.empty((0, 2))
    idx = np.repeat(np.arange(r.size), marks)
    s = s_lo[idx] + rng.random(total) * lengths[idx]
    ct, st = np.cos(theta[idx]), np.sin(theta[idx])
    return np.column_stack([r[idx] * ct - s * st, r[idx] * st + s * ct])


def chords(lines, window):
    """(intervals, hits) of (r, theta) lines in the window: the (m, 2) chord
    [s_lo, s_hi] per line (zero-length rows for missing chords, flagged in
    hits)."""
    s_lo, s_hi, hits = chord_intervals(window, lines[:, 0], lines[:, 1])
    return np.column_stack([s_lo, s_hi]), hits


def oracle_cox_line(params, window, rng, r_max=None):
    """One cox-line replicate; r_max overrides the truncation radius (any
    value at least support_radius gives the same law for the clipped points)."""
    if r_max is None:
        r_max = support_radius(window)
    m = rng.poisson(params.lambda_n * r_max)
    r = rng.uniform(0.0, r_max, m)
    theta = rng.uniform(0.0, 2.0 * np.pi, m)
    lines = np.column_stack([r, theta])
    s_lo, s_hi, _ = chord_intervals(window, r, theta)
    return lines, place_marks(lines, np.column_stack([s_lo, s_hi]), params.mu_n, rng)


def resample_marks(sample, params, window, rng):
    """Redraw the point marks conditionally on the line set of a sample drawn
    with params in the window: the Cox defining property, given the lines
    chord counts are independent Poissons with mean mu_n * chord_length."""
    pts = place_marks(sample.lines, chords(sample.lines, window)[0], params.mu_n, rng)
    return dataclasses.replace(sample, points=pts)


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


class TestCoxLine:
    def test_zero_mark_intensity(self):
        # degenerate c = 0: lines may exist but carry no points
        params = ModelParams(lambda_n=8.0, c=0.0, n=1, kind="planar")
        for i in range(5):
            s = sample_cox_line(params, UNIT_DISK, rng_for(i))
            assert len(s.points) == 0

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
        n2 = np.array([len(oracle_cox_line(params, UNIT_DISK, rng, r_max=2.0 * rs)[1])
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
            intervals, hits = chords(cand.lines, UNIT_DISK)
            if hits.any():
                order = np.argsort(~hits)  # hit lines first
                length = intervals[order[0], 1] - intervals[order[0], 0]
                if length > 1.2:
                    base = cand
                    line_idx = order[0]
                    break
        assert base is not None
        s_lo, s_hi = intervals[line_idx]
        mid = 0.5 * (s_lo + s_hi)
        r, theta = base.lines[line_idx]
        ct, st = math.cos(theta), math.sin(theta)

        def seg_count(sample, a, b):
            pts = sample.points
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
            res = resample_marks(base, params, UNIT_DISK, rng)
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
        t = resample_marks(s, params, UNIT_DISK, rng_for(41))
        assert np.array_equal(s.lines, t.lines)
        assert UNIT_DISK.contains(t.points).all() or len(t.points) == 0

    def test_kind_enforced(self):
        with pytest.raises(ValueError):
            sample_cox_line(ModelParams.spherical(1.0, 5), UNIT_DISK, rng_for(42))

    def test_matches_per_replicate_oracle(self):
        # the one-replicate view draws exactly what the line-by-line sampler
        # draws, including replicates without lines or without points
        for seed in range(40):
            for lam in (0.3, 5.0, 80.0):
                for window in (UNIT_DISK, OFF_ORIGIN):
                    params = ModelParams.planar(1.0, lam)
                    s = sample_cox_line(params, window, rng_for(7, seed))
                    lines, pts = oracle_cox_line(params, window, rng_for(7, seed))
                    assert np.array_equal(s.lines, lines)
                    assert np.array_equal(s.points, pts)


class TestCoxLineBatchLaw:
    @pytest.mark.parametrize("window", [UNIT_DISK, OFF_ORIGIN])
    def test_count_mean_and_overdispersion(self, window):
        # given the lines the window count is Poisson(mu * total chord), so
        # E N = (c/2)|K| and Var N - E N = mu^2 Var(total chord length)
        # = (c^2 / 2 lambda) G(K), half the bound
        params = ModelParams.planar(1.0, 5.0)
        reps = 100_000
        _, batch = sample_cox_line_batch(params, window, reps, rng_for(300))
        x = batch.counts(window).astype(float)
        mean, var = x.mean(), x.var(ddof=1)
        d = x - mean
        excess_se = float(np.std(d ** 2 - d, ddof=1)) / math.sqrt(reps)
        assert abs(mean - 0.5 * window.area) < 4 * math.sqrt(var / reps)
        assert abs(var - mean - cox_bound(params, window) / 2.0) < 4 * excess_se

    def test_points_carry_their_lines_replicate(self):
        params = ModelParams.planar(2.0, 10.0)
        lines, batch = sample_cox_line_batch(params, UNIT_DISK, 50, rng_for(301))
        assert len(batch) == 50 and np.all(np.diff(batch.rep_ids) >= 0)
        # the first replicate's line count is the first Poisson draw
        first = rng_for(301).poisson(params.lambda_n * support_radius(UNIT_DISK), 50)
        line_rep = np.repeat(np.arange(50), first)
        r, theta = lines[:, 0], lines[:, 1]
        for p, j in zip(batch.points, batch.rep_ids):
            on = np.abs(p[0] * np.cos(theta) + p[1] * np.sin(theta) - r) < 1e-9
            assert j in line_rep[on]


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
        close = close_pair_indicator(0.99)
        assert same_rate(close(pair.model), close(oracle))

    def test_twin_replaces_only_multi_orbit_points(self):
        params = ModelParams.spherical(self.C, 3)
        orbits, pair = sample_satellites_batch(params, 300, rng_for(440))
        model, twin = pair.model.points, pair.twin.points
        assert np.array_equal(pair.model.rep_ids, pair.twin.rep_ids)
        # a point stays iff no other point of its replicate shares its orbit
        on = np.abs(model @ orbits.T) <= 1e-9
        kept = np.all(model == twin, axis=1)
        for j in range(len(pair.model)):
            rows = pair.model.rep_ids == j
            shared = on[rows].sum(axis=0)
            alone = shared[np.argmax(on[rows], axis=1)] == 1
            assert np.array_equal(kept[rows], alone)


def blocks_by_hand(seed, point, reps, draw):
    """Blocks of BLOCK_REPS replicates, block b from stream (0, point, b)."""
    size = harness.BLOCK_REPS
    return [draw(min(size, reps - start),
                 RngStream(seed, composite_index(0, point, start // size)).generator())
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
            return sample_cox_line_batch(params, UNIT_DISK, size, rng)[1]

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
        assert row["reps"] == 1000 and row["bound_respected"] == 1
        assert math.isfinite(row["w_distance"]) and math.isfinite(row["eff_intensity"])

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
        counts = [len(satellites(params, rng).points) for _ in range(5000)]
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
