import itertools
import math
import warnings

import numpy as np
import pytest

from coxsim import pointprocess
from coxsim.diagnostics import _max_pair_dot, mecke_check_bpp, mecke_functionals
from coxsim.geometry import Disk, Rect
from coxsim.glauber import GlauberSpec, glauber_simulate
from coxsim.harness import composite_index, csv_line, stream
from coxsim.pointprocess import (ModelParams, ReplicateBatch, ppp_batch, region_counts,
                                 sample_ppp_window, sample_uniform_sphere)
from oracles import batch, count_in, multiset, plane_points, replicate, sphere_points

# chi-square 0.999 quantile at 15 degrees of freedom (fixed table value)
CHI2_999_DF15 = 37.697


def rng_for(idx=0, seed=777):
    return stream(seed, 0, 0, idx)


def config_tv_distance(a, b) -> int:
    """|a minus b| + |b minus a| as multisets (symmetric difference size)."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("configurations live in different spaces")
    ma, mb = multiset(a), multiset(b)
    return sum(abs(ma[key] - mb[key]) for key in ma.keys() | mb.keys())


class TestConfiguration:
    def test_multiset_equality_order_insensitive(self):
        a = plane_points([[0.0, 0.0], [1.0, 1.0]])
        b = plane_points([[1.0, 1.0], [0.0, 0.0]])
        assert multiset(a) == multiset(b)


class TestTvDistance:
    def test_identical(self):
        a = plane_points([[0.0, 1.0]])
        assert config_tv_distance(a, a) == 0

    def test_single_point_vs_empty(self):
        a = plane_points([[0.0, 1.0]])
        assert config_tv_distance(a, plane_points([])) == 1

    def test_symmetric_difference(self):
        p, q, r = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]
        a = plane_points([p, q])
        b = plane_points([q, r])
        assert config_tv_distance(a, b) == 2

    def test_metric_axioms_small_multisets(self):
        # exhaustive-ish over multisets drawn from a 2-point ground set
        ground = [(0.0, 0.0), (1.0, 1.0)]
        pool = []
        for n in range(3):
            for combo in itertools.combinations_with_replacement(ground, n):
                pool.append(np.array(combo).reshape(n, 2))
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
            config_tv_distance(plane_points([]), sphere_points([]))


class TestSuperposeCount:
    def test_superpose_empty(self):
        a = plane_points([[0.5, 0.5]])
        empty = plane_points([])
        out = batch([a, empty]).superpose(batch([empty, empty]))
        assert multiset(replicate(out, 0)) == multiset(a) and len(replicate(out, 1)) == 0

    def test_superpose_sizes_and_commutativity(self):
        rng = rng_for(1)
        a = rng.random((3, 2))
        b = rng.random((5, 2))
        ab = batch([a, b]).superpose(batch([b, b]))
        ba = batch([b, b]).superpose(batch([a, b]))
        assert np.bincount(ab.rep_ids).tolist() == [8, 10]
        for j in range(2):
            assert multiset(replicate(ab, j)) == multiset(replicate(ba, j))

    def test_superpose_space_mismatch(self):
        plane = ReplicateBatch.stack([np.empty((0, 2))])
        with pytest.raises(ValueError):
            plane.superpose(ReplicateBatch.stack([np.empty((0, 3))]))
        with pytest.raises(ValueError):
            plane.superpose(ReplicateBatch.stack([np.empty((0, 2))] * 2))

    def test_count_empty(self):
        assert count_in(plane_points([]), Disk((0, 0), 1.0)) == 0

    def test_count_full_window(self):
        rng = rng_for(2)
        window = Rect(0, 0, 1, 1)
        pts = window.uniform(40, rng)
        assert count_in(pts, window) == 40

    def test_count_additive_disjoint(self):
        rng = rng_for(3)
        window = Rect(0, 0, 1, 1)
        pts = window.uniform(200, rng)
        left = Rect(0, 0, 0.5, 1)
        right = Rect(0.5, 0, 1, 1)
        # the shared edge has probability 0 under the continuous law
        assert count_in(pts, left) + count_in(pts, right) == 200


class TestBatchCache:
    WINDOW = Rect(0, 0, 1, 1)
    LEFT = Rect(0, 0, 0.5, 1)

    def fresh(self, idx=0, reps=50):
        return ReplicateBatch.ppp(self.WINDOW, 4.0, reps, rng_for(idx))

    def test_arrays_read_only(self):
        b = self.fresh()
        for arr in (b.points, b.rep_ids, b.counts(self.LEFT), b.membership(self.LEFT)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_computed_once_per_region_value(self):
        b = self.fresh()
        counts, mask = b.counts(self.LEFT), b.membership(self.LEFT)
        # an equal region object hits the same entries
        assert b.counts(Rect(0, 0, 0.5, 1)) is counts
        assert b.membership(Rect(0, 0, 0.5, 1)) is mask
        assert np.array_equal(counts, region_counts(b.points, b.rep_ids, self.LEFT, len(b)))
        assert np.array_equal(mask, self.LEFT.contains(b.points))

    def test_counts_of_several_regions_and_of_patterns(self):
        # counts(A, B) counts the intersection, counts() the replicate sizes,
        # and the pattern counts over (A, B) split the sizes by membership
        b = self.fresh(reps=200)
        top = Rect(0, 0.5, 1, 1)
        in_a, in_top = self.LEFT.contains(b.points), top.contains(b.points)
        assert np.array_equal(b.counts(self.LEFT, top),
                              np.bincount(b.rep_ids[in_a & in_top], minlength=200))
        assert np.array_equal(b.counts(), np.bincount(b.rep_ids, minlength=200))
        for code in range(4):
            exact = (in_a == bool(code & 1)) & (in_top == bool(code & 2))
            assert np.array_equal(b.pattern_counts((self.LEFT, top), code),
                                  np.bincount(b.rep_ids[exact], minlength=200))
        assert np.array_equal(b.pattern_counts((), 0), b.counts())

    def test_array_centered_regions_are_keys(self):
        # a region built from arrays is stored with tuple fields, so it hashes
        b = ReplicateBatch.ppp(Disk((0, 0), 1.0), 4.0, 50, rng_for(4))
        disk = Disk(np.array([0.0, 0.5]), 0.5)
        assert disk == Disk((0.0, 0.5), 0.5)
        assert np.array_equal(b.counts(disk), region_counts(b.points, b.rep_ids, disk, 50))

    def test_derived_batches_start_empty(self):
        b, other = self.fresh(0), self.fresh(1)
        b.counts(self.LEFT), b.membership(self.LEFT), other.counts(self.LEFT)
        derived = [b.thin(0.5, rng_for(2)), b.superpose(other),
                   ReplicateBatch.concat([b, other]),
                   ReplicateBatch.stack([b.points]),
                   ReplicateBatch.ppp(self.WINDOW, 4.0, 50, rng_for(0)),
                   b.replace()]
        for d in derived:
            assert d._cache == {}

    def test_thinned_counts_are_its_own(self):
        b = self.fresh(reps=200)
        parent = b.counts(self.WINDOW)
        thinned = b.thin(0.5, rng_for(3))
        own = thinned.counts(self.WINDOW)
        assert np.array_equal(
            own, region_counts(thinned.points, thinned.rep_ids, self.WINDOW, len(b)))
        assert own.sum() < parent.sum()

    def test_equality_ignores_cache(self):
        b = self.fresh()
        same = b.replace()
        b.counts(self.LEFT)
        assert b == same and b._cache != same._cache
        assert "_cache" not in repr(same)


class TestByReplicate:
    """The sort by replicate is skipped for a grouped batch; its two users give
    the same arrays on a superposed batch, whose replicate ids interleave, as
    on the same replicates stably sorted."""

    @staticmethod
    def stably_sorted(b):
        order = np.argsort(b.rep_ids, kind="stable")
        return ReplicateBatch(b.points[order], b.rep_ids[order], b.reps)

    def test_grouped_batch_is_returned_as_is(self):
        for b in (ReplicateBatch.ppp(Rect(0, 0, 1, 1), 4.0, 50, rng_for(30)),
                  ReplicateBatch.tile(np.empty((0, 2)), 3)):
            points, ids = b.by_replicate()
            assert points is b.points and ids is b.rep_ids

    def test_close_pair_scan_of_a_superposed_batch(self):
        rng = rng_for(31)
        a, b = (ReplicateBatch.stack([sample_uniform_sphere(rng, k)
                                      for k in rng.integers(0, 7, 300)]) for _ in range(2))
        mixed = a.superpose(b)
        assert np.any(np.diff(mixed.rep_ids) < 0)
        points, ids = mixed.by_replicate()
        assert np.array_equal(points, self.stably_sorted(mixed).points)
        assert np.all(np.diff(ids) >= 0)
        assert np.array_equal(_max_pair_dot(mixed), _max_pair_dot(self.stably_sorted(mixed)))

    def test_glauber_of_a_superposed_batch(self):
        window = Rect(0, 0, 1, 1)
        mixed = ReplicateBatch.ppp(window, 3.0, 300, rng_for(32)).superpose(
            ReplicateBatch.ppp(window, 2.0, 300, rng_for(33)))
        assert np.any(np.diff(mixed.rep_ids) < 0)
        spec = GlauberSpec(window, 3.0)
        got = glauber_simulate(mixed, spec, rng_for(34), horizon=1.5)
        want = glauber_simulate(self.stably_sorted(mixed), spec, rng_for(34), horizon=1.5)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.rep_ids, want.rep_ids)


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
        pts = sample_ppp_window(window, 20.0, rng_for(7))
        assert pts.shape[1] == 2 and window.contains(pts).all()


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
        assert sample_uniform_sphere(rng_for(14), 1).shape == (1, 3)


class TestBpp:
    # the binomial point process of n points is window.uniform(n)

    def test_exact_size(self):
        for window in (Rect(0, 0, 1, 1), Disk((0.5, -1.0), 2.0)):
            for n in (1, 5, 64):
                pts = window.uniform(n, rng_for(16))
                assert pts.shape == (n, 2)
                assert window.contains(pts).all()

    @pytest.mark.parametrize("n, reps", [(0, 4), (1, 50), (3, 50), (6, 7)])
    def test_batch_is_one_uniform_draw(self, n, reps):
        # ReplicateBatch.bpp draws exactly window.uniform(reps * n)
        for k, window in enumerate((Rect(0, 0, 1, 1), Disk((0.5, -1.0), 2.0))):
            b = ReplicateBatch.bpp(window, n, reps, rng_for(19 + k))
            pts = window.uniform(reps * n, rng_for(19 + k))
            assert np.array_equal(b.points, pts) and len(b) == reps
            assert np.array_equal(b.rep_ids, np.repeat(np.arange(reps), n))

    def test_requires_positive(self):
        window = Rect(0, 0, 1, 1)
        with pytest.raises(ValueError):
            mecke_check_bpp(mecke_functionals(window), 0, window, 100, rng_for(17))

    def test_marginal_chi_square(self):
        # goodness of fit of the uniform marginal on a 4x4 cell grid
        pts = Rect(0, 0, 1, 1).uniform(16_000, rng_for(18))
        ix = np.minimum((pts[:, 0] * 4).astype(int), 3)
        iy = np.minimum((pts[:, 1] * 4).astype(int), 3)
        observed = np.bincount(ix * 4 + iy, minlength=16)
        expected = 1000.0
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < CHI2_999_DF15


class TestThin:
    def test_keep_all(self):
        pts = rng_for(19).random((7, 2))
        assert multiset(replicate(batch([pts]).thin(1.0, rng_for(20)), 0)) == multiset(pts)

    def test_drop_all(self):
        pts = rng_for(21).random((7, 2))
        out = batch([pts, pts]).thin(0.0, rng_for(22))
        assert len(out.points) == 0 and len(out) == 2

    def test_binomial_mean(self):
        pts = rng_for(23).random((50, 2))
        out = ReplicateBatch.stack([pts] * 20_000).thin(0.3, rng_for(24))
        sizes = np.bincount(out.rep_ids, minlength=20_000)
        se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        assert abs(sizes.mean() - 15.0) < 3 * se

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            batch([plane_points([])]).thin(1.5, rng_for(25))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestCompressMatchesMaskIndexing:
    """The np.compress selections give what boolean-mask indexing gave."""

    WINDOW = Rect(0, 0, 1, 1)

    @pytest.mark.parametrize("reps, region", [
        (0, Rect(0, 0, 1, 1)),                 # empty batch
        (40, Rect(2, 2, 3, 3)),                # all-False mask
        (40, Rect(-1, -1, 2, 2)),              # all-True mask
        (40, Disk((0.5, 0.5), 0.3))])
    def test_region_counts(self, reps, region):
        b = ReplicateBatch.ppp(self.WINDOW, 30.0, reps, rng_for(26))
        mask = region.contains(b.points)
        assert_same_array(region_counts(b.points, b.rep_ids, region, reps),
                          np.bincount(b.rep_ids[mask], minlength=reps))

    @pytest.mark.parametrize("reps", [0, 1, 40])
    def test_counts_in_small_blocks(self, reps, monkeypatch):
        # blocks of 7 points split replicates and leave a short last block
        monkeypatch.setattr(pointprocess, "COUNT_BLOCK", 7)
        b = ReplicateBatch.ppp(self.WINDOW, 30.0, reps, rng_for(29))
        region = Disk((0.5, 0.5), 0.3)
        mask = region.contains(b.points)
        assert_same_array(region_counts(b.points, b.rep_ids, region, reps),
                          np.bincount(b.rep_ids[mask], minlength=reps))
        assert_same_array(b.counts(), np.bincount(b.rep_ids, minlength=reps))

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_thin(self, p):
        b = ReplicateBatch.ppp(self.WINDOW, 30.0, 40, rng_for(27))
        keep = rng_for(28).random(b.points.shape[0]) < p
        out = b.thin(p, rng_for(28))
        assert_same_array(out.points, b.points[keep])
        assert_same_array(out.rep_ids, b.rep_ids[keep])
        assert len(out) == len(b)

    @pytest.mark.parametrize("pts", [np.empty((0, 2)), np.array([[1, 2], [3, 4]]),
                                     np.array([[0.5, -0.5, 0.25]])])
    def test_tile_is_stack(self, pts):
        for reps in (1, 3):
            tiled, stacked = ReplicateBatch.tile(pts, reps), ReplicateBatch.stack([pts] * reps)
            assert_same_array(tiled.points, stacked.points)
            assert_same_array(tiled.rep_ids, stacked.rep_ids)
            assert len(tiled) == len(stacked) == reps


class TestReproducibility:
    def test_identical_streams(self):
        a = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, stream(42, 0, 0, 9))
        b = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, stream(42, 0, 0, 9))
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, stream(42, 0, 0, 9))
        b = sample_ppp_window(Rect(0, 0, 1, 1), 5.0, stream(42, 0, 0, 10))
        assert not (len(a) == len(b) and np.array_equal(a, b))

    def test_composite_index(self):
        assert composite_index(0, 0, 0) == 0
        assert composite_index(1, 0, 0) == 2 ** 56
        assert composite_index(0, 1, 0) == 2 ** 40
        assert composite_index(0, 0, 1) == 1
        with pytest.raises(ValueError):
            composite_index(256, 0, 0)
        with pytest.raises(ValueError):
            composite_index(0, 0, 2 ** 40)


def points_csv(points: np.ndarray) -> str:
    """A points CSV as simulate writes it: the x,y or x,y,z header, then one
    csv_line per point."""
    return "".join(map(csv_line, [("x", "y", "z")[:points.shape[1]], *points]))


def parse_csv(text: str) -> np.ndarray:
    """A points CSV read back by numpy, with one column per header field."""
    lines = text.splitlines(keepends=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # header-only: no data rows
        return np.loadtxt(lines, delimiter=",", skiprows=1, ndmin=2,
                          usecols=range(len(lines[0].split(","))))


class TestCsv:
    def test_round_trip_planar(self):
        pts = rng_for(26).random((5, 2)) * 1e-3
        text = points_csv(pts)
        assert text.startswith("x,y\n")
        assert np.array_equal(parse_csv(text), pts)

    def test_round_trip_sphere(self):
        pts = sample_uniform_sphere(rng_for(27), 4)
        text = points_csv(pts)
        assert text.startswith("x,y,z\n")
        assert np.array_equal(parse_csv(text), pts)

    def test_header_only(self):
        for empty, header in ((plane_points([]), "x,y\n"), (sphere_points([]), "x,y,z\n")):
            text = points_csv(empty)
            assert text == header
            back = parse_csv(text)
            assert back.shape == empty.shape and np.array_equal(back, empty)


class TestModelParams:
    def test_planar_coupling(self):
        p = ModelParams.planar(2.0, 8.0)
        assert p.mu_n == pytest.approx(0.25)
        p.check_kind("planar")
        with pytest.raises(ValueError):
            p.check_kind("spherical")

    def test_spherical_coupling(self):
        p = ModelParams.spherical(3.0, 12)
        assert p.mu_n == pytest.approx(0.25)
        p.check_kind("spherical")
        with pytest.raises(ValueError):
            p.check_kind("planar")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ModelParams.planar(-1.0, 2.0)
        with pytest.raises(ValueError):
            ModelParams.spherical(1.0, 0)
        for c, lam in ((math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(ValueError):
                ModelParams.planar(c, lam)
        with pytest.raises(ValueError):
            ModelParams.spherical(math.inf, 5)

    def test_spherical_n_must_be_integral(self):
        # n = 10.5 would give mu_n = c / 10.5 while the sampler draws labels
        # in [0, 10) and the bound reads n = 10
        for n in (10.5, 1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="integer"):
                ModelParams.spherical(2.0, n)
        p = ModelParams.spherical(2.0, 10.0)
        assert (p.n, p.lambda_n, p.mu_n) == (10, 10.0, 0.2)
