import itertools
import math
from collections import Counter

import numpy as np
import pytest

from coxsim.diagnostics import mecke_check_bpp, mecke_functionals
from coxsim.geometry import Disk, Rect
from coxsim.pointprocess import (PLANE, SPHERE, Configuration, ModelParams,
                                 ReplicateBatch, RngStream, composite_index,
                                 config_from_csv, config_to_csv,
                                 ppp_batch, region_counts, sample_ppp_window,
                                 sample_uniform_sphere, uniform_in_window)

# chi-square 0.999 quantile at 15 degrees of freedom (fixed table value)
CHI2_999_DF15 = 37.697


def rng_for(idx=0, seed=777):
    return RngStream(seed, idx).generator()


def batch(*configs):
    return ReplicateBatch.stack([c.points for c in configs], configs[0].space)


def replicate(b, j):
    return Configuration(b.points[b.rep_ids == j], b.space)


def multiset(cfg):
    """A configuration's points as a multiset, for order-free comparison."""
    return Counter(map(tuple, cfg.points))


def config_tv_distance(a, b) -> int:
    """|a minus b| + |b minus a| as multisets (symmetric difference size)."""
    if a.space != b.space:
        raise ValueError("configurations live in different spaces")
    ma, mb = multiset(a), multiset(b)
    return sum(abs(ma[key] - mb[key]) for key in ma.keys() | mb.keys())


class TestConfiguration:
    def test_multiset_equality_order_insensitive(self):
        a = Configuration([[0.0, 0.0], [1.0, 1.0]], PLANE)
        b = Configuration([[1.0, 1.0], [0.0, 0.0]], PLANE)
        assert multiset(a) == multiset(b)

    def test_immutable(self):
        cfg = Configuration([[0.0, 0.0]], PLANE)
        with pytest.raises(AttributeError):
            cfg.space = SPHERE
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Configuration([[1.0, 2.0, 3.0]], PLANE)
        with pytest.raises(ValueError):
            Configuration([[1.0, 2.0]], "line")


class TestTvDistance:
    def test_identical(self):
        a = Configuration([[0.0, 1.0]], PLANE)
        assert config_tv_distance(a, a) == 0

    def test_single_point_vs_empty(self):
        a = Configuration([[0.0, 1.0]], PLANE)
        assert config_tv_distance(a, Configuration.empty(PLANE)) == 1

    def test_symmetric_difference(self):
        p, q, r = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]
        a = Configuration([p, q], PLANE)
        b = Configuration([q, r], PLANE)
        assert config_tv_distance(a, b) == 2

    def test_metric_axioms_small_multisets(self):
        # exhaustive-ish over multisets drawn from a 2-point ground set
        ground = [(0.0, 0.0), (1.0, 1.0)]
        pool = []
        for n in range(3):
            for combo in itertools.combinations_with_replacement(ground, n):
                pool.append(Configuration(np.array(combo).reshape(n, 2), PLANE))
        for a in pool:
            for b in pool:
                d = config_tv_distance(a, b)
                assert d == config_tv_distance(b, a)
                assert (d == 0) == (multiset(a) == multiset(b))
                for c in pool:
                    assert d <= (config_tv_distance(a, c)
                                 + config_tv_distance(c, b))

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            config_tv_distance(Configuration.empty(PLANE),
                               Configuration.empty(SPHERE))


class TestSuperposeCount:
    def test_superpose_empty(self):
        a = Configuration([[0.5, 0.5]], PLANE)
        empty = Configuration.empty(PLANE)
        out = batch(a, empty).superpose(batch(empty, empty))
        assert multiset(replicate(out, 0)) == multiset(a) and len(replicate(out, 1)) == 0

    def test_superpose_sizes_and_commutativity(self):
        rng = rng_for(1)
        a = Configuration(rng.random((3, 2)), PLANE)
        b = Configuration(rng.random((5, 2)), PLANE)
        ab = batch(a, b).superpose(batch(b, b))
        ba = batch(b, b).superpose(batch(a, b))
        assert np.bincount(ab.rep_ids).tolist() == [8, 10]
        for j in range(2):
            assert multiset(replicate(ab, j)) == multiset(replicate(ba, j))

    def test_superpose_space_mismatch(self):
        plane = ReplicateBatch.stack([np.empty((0, 2))], PLANE)
        with pytest.raises(ValueError):
            plane.superpose(ReplicateBatch.stack([np.empty((0, 3))], SPHERE))
        with pytest.raises(ValueError):
            plane.superpose(ReplicateBatch.stack([np.empty((0, 2))] * 2, PLANE))

    def test_count_empty(self):
        assert Configuration.empty(PLANE).count_in(Disk((0, 0), 1.0)) == 0

    def test_count_full_window(self):
        rng = rng_for(2)
        window = Rect(0, 0, 1, 1)
        pts = uniform_in_window(window, 40, rng)
        assert Configuration(pts, PLANE).count_in(window) == 40

    def test_count_additive_disjoint(self):
        rng = rng_for(3)
        window = Rect(0, 0, 1, 1)
        cfg = Configuration(uniform_in_window(window, 200, rng), PLANE)
        left = Rect(0, 0, 0.5, 1)
        right = Rect(0.5, 0, 1, 1)
        # the shared edge has probability 0 under the continuous law
        assert cfg.count_in(left) + cfg.count_in(right) == 200


class TestPppWindow:
    def test_zero_intensity(self):
        for _ in range(5):
            assert len(sample_ppp_window(Rect(0, 0, 1, 1), 0.0, rng_for(4))) == 0

    def test_mean_and_variance(self):
        window = Disk((0.5, 0.0), 0.8)
        lam = 3.0
        reps = 20_000
        counts, _, _ = ppp_batch(window, lam, reps, rng_for(5))
        mean = counts.mean()
        se = counts.std(ddof=1) / math.sqrt(reps)
        expect = lam * window.area
        assert abs(mean - expect) < 3 * se
        # Poisson variance equals the mean; MC tolerance on the variance
        var = counts.var(ddof=1)
        var_se = np.std((counts - mean) ** 2, ddof=1) / math.sqrt(reps)
        assert abs(var - expect) < 4 * var_se

    def test_disjoint_independence(self):
        window = Rect(0, 0, 1, 1)
        reps = 20_000
        _, pts, ids = ppp_batch(window, 4.0, reps, rng_for(6))
        ca = region_counts(pts, ids, Rect(0, 0, 0.5, 1), reps)
        cb = region_counts(pts, ids, Rect(0.5, 0, 1, 1), reps)
        corr = np.corrcoef(ca, cb)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(reps)

    def test_points_inside(self):
        window = Disk((0.0, 0.0), 0.5)
        cfg = sample_ppp_window(window, 20.0, rng_for(7))
        assert window.contains(cfg.points).all()


class TestUniformSphere:
    def test_unit_norm(self):
        pts = sample_uniform_sphere(rng_for(12), 1000)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_moments(self):
        # E[z] = 0 by symmetry; E[z^2] = int_{-1}^{1} z^2/2 dz = 1/3
        zq = np.linspace(-1, 1, 20001)
        oracle = np.trapezoid(zq ** 2 * 0.5, zq)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-6)
        pts = sample_uniform_sphere(rng_for(13), 100_000)
        z = pts[:, 2]
        assert abs(z.mean()) < 3 * z.std(ddof=1) / math.sqrt(z.size)
        z2 = z ** 2
        assert abs(z2.mean() - oracle) < 3 * z2.std(ddof=1) / math.sqrt(z.size)

    def test_single_draw_shape(self):
        p = sample_uniform_sphere(rng_for(14))
        assert p.shape == (3,)


class TestBpp:
    # the binomial point process of n points is uniform_in_window(window, n)

    def test_exact_size(self):
        for window in (Rect(0, 0, 1, 1), Disk((0.5, -1.0), 2.0)):
            for n in (1, 5, 64):
                pts = uniform_in_window(window, n, rng_for(16))
                assert pts.shape == (n, 2)
                assert window.contains(pts).all()

    def test_requires_positive(self):
        window = Rect(0, 0, 1, 1)
        with pytest.raises(ValueError):
            mecke_check_bpp(mecke_functionals(window)[0], 0, window, 100, rng_for(17))

    def test_marginal_chi_square(self):
        # goodness of fit of the uniform marginal on a 4x4 cell grid
        pts = uniform_in_window(Rect(0, 0, 1, 1), 16_000, rng_for(18))
        ix = np.minimum((pts[:, 0] * 4).astype(int), 3)
        iy = np.minimum((pts[:, 1] * 4).astype(int), 3)
        observed = np.bincount(ix * 4 + iy, minlength=16)
        expected = 1000.0
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < CHI2_999_DF15


class TestThin:
    def test_keep_all(self):
        cfg = Configuration(rng_for(19).random((7, 2)), PLANE)
        assert multiset(replicate(batch(cfg).thin(1.0, rng_for(20)), 0)) == multiset(cfg)

    def test_drop_all(self):
        cfg = Configuration(rng_for(21).random((7, 2)), PLANE)
        out = batch(cfg, cfg).thin(0.0, rng_for(22))
        assert len(out.points) == 0 and len(out) == 2

    def test_binomial_mean(self):
        cfg = Configuration(rng_for(23).random((50, 2)), PLANE)
        out = ReplicateBatch.stack([cfg.points] * 20_000, PLANE).thin(0.3, rng_for(24))
        sizes = np.bincount(out.rep_ids, minlength=20_000)
        se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        assert abs(sizes.mean() - 15.0) < 3 * se

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            batch(Configuration.empty(PLANE)).thin(1.5, rng_for(25))


class TestReproducibility:
    def test_identical_streams(self):
        a = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, RngStream(42, 9).generator())
        b = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, RngStream(42, 9).generator())
        assert np.array_equal(a.points, b.points)

    def test_distinct_streams(self):
        a = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, RngStream(42, 9).generator())
        b = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, RngStream(42, 10).generator())
        assert not (len(a) == len(b) and np.array_equal(a.points, b.points))

    def test_composite_index(self):
        assert composite_index(0, 0, 0) == 0
        assert composite_index(1, 0, 0) == 2 ** 56
        assert composite_index(0, 1, 0) == 2 ** 40
        assert composite_index(0, 0, 1) == 1
        with pytest.raises(ValueError):
            composite_index(256, 0, 0)
        with pytest.raises(ValueError):
            composite_index(0, 0, 2 ** 40)

    def test_child_stream(self):
        s = RngStream(7)
        assert s.child(1, 2, 3).index == composite_index(1, 2, 3)


class TestCsv:
    def test_round_trip_planar(self):
        cfg = Configuration(rng_for(26).random((5, 2)) * 1e-3, PLANE)
        back = config_from_csv(config_to_csv(cfg))
        assert back.space == PLANE
        assert np.array_equal(back.points, cfg.points)

    def test_round_trip_sphere(self):
        cfg = Configuration(sample_uniform_sphere(rng_for(27), 4), SPHERE)
        back = config_from_csv(config_to_csv(cfg))
        assert back.space == SPHERE
        assert np.array_equal(back.points, cfg.points)

    def test_header_only(self):
        assert len(config_from_csv("x,y\n")) == 0

    def test_bad_header(self):
        with pytest.raises(ValueError):
            config_from_csv("a,b\n1,2\n")


class TestModelParams:
    def test_planar_coupling(self):
        p = ModelParams.planar(2.0, 8.0)
        assert p.mu_n == pytest.approx(0.25)
        p.check_planar()

    def test_spherical_coupling(self):
        p = ModelParams.spherical(3.0, 12)
        assert p.mu_n == pytest.approx(0.25)
        p.check_spherical()

    def test_coupling_violation(self):
        bad = ModelParams(lambda_n=2.0, mu_n=0.3, c=1.0, n=1)
        with pytest.raises(ValueError):
            bad.check_planar()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ModelParams.planar(-1.0, 2.0)
        with pytest.raises(ValueError):
            ModelParams.spherical(1.0, 0)
