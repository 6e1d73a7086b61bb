import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from coxsim.coxmodels import MODELS, sample_satellites_with_twin
from coxsim.diagnostics import (DistanceEstimate, Functional,
                                count_indicator, count_pmfs, count_tv_lower_bound,
                                coupled_wasserstein_lower_bound,
                                empirical_count_tv, glauber_functionals,
                                invariance_check, mecke_check_bpp,
                                mecke_check_ppp, mecke_functionals,
                                planar_functional_family, planar_region_set,
                                poisson_pmf, rate_regression,
                                sphere_functional_family, sphere_region_set,
                                tv_vs_poisson, wasserstein_lower_bound)
from coxsim.geometry import Disk, LatitudeBand, Rect
from coxsim.harness import check_mecke, mc_row, stream
from coxsim.pointprocess import (CoupledBatch, ModelParams, ReplicateBatch,
                                 sample_ppp_window, sample_uniform_sphere)
from oracles import POLAR_CAPS, batch, cap_counts, count_in, plane_points, sphere_points

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)


def rng_for(idx, seed=31415):
    return stream(seed, 0, 0, idx)


def ppp_samples(lam, reps, rng):
    return batch([sample_ppp_window(WINDOW, lam, rng) for _ in range(reps)])


class TestPoissonPmf:
    def test_matches_direct_formula(self):
        m = 2.7
        pmf, tail = poisson_pmf(m)
        for k in (0, 1, 5):
            direct = math.exp(-m) * m ** k / math.factorial(k)
            assert pmf[k] == pytest.approx(direct, rel=1e-12)
        assert tail <= 1e-12
        assert pmf.sum() == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("mean", [0.5, 50.0, 740.0, 800.0, 5000.0])
    def test_mass_is_one(self, mean):
        # exp(-mean) underflows from mean 746: a recursion started from it
        # loses mass near 730 and returns all zeros from 746
        pmf, tail = poisson_pmf(mean)
        assert abs(pmf.sum() - 1.0) <= 1e-11
        assert tail <= 1e-12

    def test_zero_mean(self):
        pmf, tail = poisson_pmf(0.0)
        assert pmf.tolist() == [1.0]
        assert tail == 0.0

    @pytest.mark.parametrize("mean", [0.0, 1.0, 2.7, 800.0])
    def test_memo_is_read_only_and_exact(self, mean):
        pmf, tail = poisson_pmf(mean)
        with pytest.raises(ValueError):
            pmf[0] = 0.5
        fresh, fresh_tail = poisson_pmf.__wrapped__(mean)
        assert pmf.tobytes() == fresh.tobytes() and tail == fresh_tail
        assert poisson_pmf(mean)[0] is pmf
        # a cache entry holds the truncated pmf, not the longer term array
        assert pmf.base is None and pmf.size <= mean + 7 * math.sqrt(mean) + 20

    def test_memo_is_bounded(self):
        assert 0 < poisson_pmf.cache_info().maxsize < 1000


class TestTv:
    def test_identical_counts(self):
        c = np.array([0, 1, 2, 1, 0])
        assert empirical_count_tv(c, c) == 0.0

    def test_disjoint_supports(self):
        assert empirical_count_tv(np.zeros(100, int), np.full(100, 5)) == 1.0

    def test_order_invariance(self):
        rng = rng_for(0)
        a = rng.poisson(2.0, 5000)
        b = rng.poisson(2.0, 5000)
        t1 = empirical_count_tv(a, b)
        t2 = empirical_count_tv(rng.permutation(a), rng.permutation(b))
        assert t1 == t2

    def test_hand_computed_two_point(self):
        # empirical pmf (1/2, 1/2) against Poisson(1)
        counts = np.array([0] * 500 + [1] * 500)
        pmf, tail = poisson_pmf(1.0)
        expect = 0.5 * (abs(0.5 - pmf[0]) + abs(0.5 - pmf[1])
                        + pmf[2:].sum() + tail)
        assert tv_vs_poisson(count_pmfs(counts, 1.0)) == pytest.approx(expect, abs=1e-12)

    def test_zero_target_mean(self):
        counts = np.array([0] * 900 + [1] * 100)
        assert tv_vs_poisson(count_pmfs(counts, 0.0)) == pytest.approx(0.1)

    def test_exact_law_goes_to_zero(self):
        rng = rng_for(1)
        tv_small = tv_vs_poisson(count_pmfs(rng.poisson(1.5, 40_000), 1.5))
        assert tv_small < 0.02


class TestCountTvLowerBound:
    def test_split_sample_sanity(self):
        # the model's own empirical law against itself sits at the noise floor
        params = ModelParams.spherical(2.0, 5)
        rng = rng_for(2)
        band = LatitudeBand(-1 / 3, 1 / 3)
        counts = np.array([count_in(sample_satellites_with_twin(params, rng)[0].points, band)
                           for _ in range(8000)])
        half = counts.size // 2
        tv = empirical_count_tv(counts[:half], counts[half:])
        assert tv < 2.0 / math.sqrt(half)

    def test_satellites_positive_below_bound(self):
        # n=5, c=2: strictly positive distance, below the 2c^2/n = 1.6 bound
        params = ModelParams.spherical(2.0, 5)
        rng = rng_for(3)
        samples = batch([sample_satellites_with_twin(params, rng)[0].points
                         for _ in range(6000)])
        band = LatitudeBand(-1 / 6, 1 / 6)
        est = count_tv_lower_bound(count_pmfs(samples.counts(band), 2.0 * band.measure),
                                   len(samples), rng_for(4), band.describe())
        assert est.value - est.stderr > 0
        assert est.value < 1.6
        assert est.regions == band.describe()

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="at least 1000"):
            count_tv_lower_bound(count_pmfs(np.zeros(10, dtype=np.int64), 1.0), 10,
                                 rng_for(5), "sphere")


class TestWassersteinLowerBound:
    def test_identical_samplers_near_zero(self):
        rng = rng_for(7)
        samples = ppp_samples(2.0, 4000, rng)
        ref = lambda reps, r: ReplicateBatch.ppp(WINDOW, 2.0, reps, r)
        fam = [count_indicator(WINDOW, {0}), count_indicator(WINDOW, {1}),
               count_indicator(WINDOW, {2})]
        est = wasserstein_lower_bound(samples, ref, fam, rng_for(8))
        assert est.value < 0.02

    def test_constant_family_zero(self):
        samples = batch([plane_points([])] * 1000)
        ref = lambda reps, r: batch([plane_points([])] * reps)
        fam = [Functional("const", (), lambda c: np.full(len(c), 1.0))]
        est = wasserstein_lower_bound(samples, ref, fam, rng_for(9))
        assert est.value == 0.0

    def test_dominates_count_tv_with_level_sets(self):
        # with all contiguous count-range indicators in the family, the max
        # gap reaches the count-law TV (the optimal set is a range here)
        rng = rng_for(11)
        samples = ppp_samples(1.0, 5000, rng)
        fam = [count_indicator(WINDOW, set(range(a, b + 1)),
                               name=f"range[{a},{b}]")
               for a in range(0, 9) for b in range(a, 9)]
        ref = lambda reps, r: ReplicateBatch.ppp(WINDOW, 2.0, reps, r)
        est = wasserstein_lower_bound(samples, ref, fam, rng_for(12),
                                      ref_factor=8)
        counts = samples.counts(WINDOW)
        tv = tv_vs_poisson(count_pmfs(counts, 2.0))
        assert est.value + 4 * est.stderr >= tv - 0.01

    def test_detects_rate_mismatch(self):
        rng = rng_for(13)
        samples = ppp_samples(1.0, 4000, rng)
        ref = lambda reps, r: ReplicateBatch.ppp(WINDOW, 2.0, reps, r)
        fam = [count_indicator(WINDOW, {0})]
        est = wasserstein_lower_bound(samples, ref, fam, rng_for(14))
        # |P(N1=0) - P(N2=0)| = e^-1 - e^-2
        expect = math.exp(-1) - math.exp(-2)
        assert est.value == pytest.approx(expect, abs=0.03)


class TestCoupled:
    def test_identical_pairs_zero(self):
        side = batch([sphere_points([[0.0, 0.0, 1.0]])] * 500)
        pairs = CoupledBatch(side, side)
        fam = [count_indicator(LatitudeBand(0, 1), {1})]
        est = coupled_wasserstein_lower_bound(pairs, fam)
        assert est.value == 0.0

    def test_detects_shift(self):
        rng = rng_for(15)
        models, twins = [], []
        band = LatitudeBand(0.0, 1.0)
        for _ in range(2000):
            models.append(sample_uniform_sphere(rng, 2))
            twins.append(sample_uniform_sphere(rng, 1))
        pairs = CoupledBatch(ReplicateBatch.stack(models),
                             ReplicateBatch.stack(twins))
        fam = [count_indicator(band, {0})]
        est = coupled_wasserstein_lower_bound(pairs, fam)
        # |P(Binom(2,1/2)=0) - P(Binom(1,1/2)=0)| = 1/4
        assert est.value == pytest.approx(0.25, abs=0.05)


def mecke_rows(check, arg, window, reps, rng, mfs=None) -> list:
    """The harness row of each functional: the kernel's per-replicate left
    sides against the functional's closed form at arg."""
    mfs = mecke_functionals(window) if mfs is None else mfs
    oracle = "oracle_ppp" if check is mecke_check_ppp else "oracle_bpp"
    sides = check(mfs, arg, window, reps, rng)
    assert len(sides) == len(mfs)
    out = []
    for mf, lhs in zip(mfs, sides):
        assert lhs.shape == (reps,)
        out.append(mc_row(mf.name, lhs, getattr(mf, oracle)(arg), 0))
    return out


class TestMecke:
    @staticmethod
    def assert_rows_pass(rows):
        for row in rows:
            assert row.passed, row

    def test_ppp_all_registry(self):
        rows = mecke_rows(mecke_check_ppp, 3.0, WINDOW, 30_000, rng_for(16))
        assert [r.name for r in rows] == [mf.name for mf in mecke_functionals(WINDOW)]
        self.assert_rows_pass(rows)

    def test_bpp_all_registry(self):
        rows = mecke_rows(mecke_check_bpp, 6, WINDOW, 30_000, rng_for(17))
        assert [r.name for r in rows] == [mf.name for mf in mecke_functionals(WINDOW)]
        self.assert_rows_pass(rows)

    @pytest.mark.parametrize("check, arg", [(mecke_check_ppp, 3.0), (mecke_check_bpp, 6)])
    def test_draw_does_not_depend_on_family(self, check, arg):
        # the family shares one draw, so functional i gets the same values
        # whether it is checked with the others or alone on the same stream
        mfs = mecke_functionals(WINDOW)
        family = check(mfs, arg, WINDOW, 2_000, rng_for(19))
        for i, mf in enumerate(mfs):
            [lhs] = check([mf], arg, WINDOW, 2_000, rng_for(19))
            np.testing.assert_array_equal(lhs, family[i])

    def test_bpp_single_point(self):
        # N = 1: Phi_1 - x is empty, so h sees nothing
        rows = mecke_rows(mecke_check_bpp, 1, WINDOW, 20_000, rng_for(20))
        self.assert_rows_pass(rows)
        one = rows[0]
        assert one.name == "F=1" and one.lhs == one.rhs == 1.0
        # x in A and a point of the empty Phi_1 - x in A or B cannot both hold
        for row in rows[2:]:
            assert row.lhs == row.rhs == 0.0, row

    def test_ppp_oracles_with_independent_formulas(self):
        # freeze the analytic values independently of the registry lambdas
        lam = 3.0
        A = Rect(0, 0, 0.5, 1)
        B = Rect(0.5, 0, 1, 1)
        mu = lam * A.area
        # P(M = k) of the PPP count M in A, k = 0 and 1
        p0, p1 = math.exp(-mu), mu * math.exp(-mu)
        expected = {
            "F=1": lam * WINDOW.area,
            "F=1{x in A}": lam * A.area,
            "F=1{x in A}|w∩A|": (lam * A.area) ** 2,
            "F=1{x in A}1{|w∩B|>=1}": lam * A.area * (1 - math.exp(-lam * B.area)),
            "F=1{x in A}min(|w∩A|,2)": mu * (p1 + 2 * (1 - p0 - p1)),
        }
        got = {mf.name: mf.oracle_ppp(lam) for mf in mecke_functionals(WINDOW)}
        assert got == pytest.approx(expected)

    def test_bpp_oracles_with_independent_formulas(self):
        N = 6
        mu_half = 0.5
        # E min(M, 2), M ~ Binomial(N - 1, 1/2) the other points in A
        capped = sum(min(k, 2) * math.comb(N - 1, k) for k in range(N)) / 2 ** (N - 1)
        expected = {
            "F=1": float(N),
            "F=1{x in A}": N * mu_half,
            # reduced form: x in A and one of the other N - 1 points in A
            "F=1{x in A}|w∩A|": N * (N - 1) * mu_half ** 2,
            "F=1{x in A}1{|w∩B|>=1}": N * mu_half * (1 - (1 - mu_half) ** (N - 1)),
            "F=1{x in A}min(|w∩A|,2)": N * mu_half * capped,
        }
        got = {mf.name: mf.oracle_bpp(N) for mf in mecke_functionals(WINDOW)}
        assert got == pytest.approx(expected)

    def test_registries_share_halves(self):
        # Mecke regions A, B and the Glauber left/right regions are the same
        # window halves, for a rect and (inscribed-square halves) a disk
        for window in (WINDOW, Disk((0.3, -0.2), 0.8)):
            A, B = window.halves()
            regions = {(mf.g.regions, mf.h.regions) for mf in mecke_functionals(window)}
            assert regions == {((), ()), ((A,), ()), ((A,), (A,)), ((A,), (B,))}
            names = [F.name for F in glauber_functionals(window)]
            assert f"min(count[{A.describe()}],2)" in names
            assert (f"1{{count[{A.describe()}]>=1}}*1{{count[{B.describe()}]>=1}}"
                    in names)

    def test_disk_window_halves(self):
        rng = rng_for(18)
        disk = Disk((0.0, 0.0), 1.0)
        rows = mecke_rows(mecke_check_ppp, 2.0, disk, 20_000, rng, mecke_functionals(disk)[:3])
        self.assert_rows_pass(rows)


class TestContainsBudget:
    """Each (batch, region) pair is tested for containment at most once, for
    its counts and its point memberships together, however many functionals
    share the region."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        contains = Rect.contains

        def spy(region, pts):
            calls.append((region, pts))   # holding pts keeps its id unique
            return contains(region, pts)

        monkeypatch.setattr(Rect, "contains", spy)
        return calls

    def test_check_mecke(self, monkeypatch):
        calls = self.record(monkeypatch)
        check_mecke(0, 2000)
        per_pair = Counter((region, id(pts)) for region, pts in calls)
        assert set(per_pair.values()) == {1}
        # A and B on Phi (ppp) and on Phi_N (bpp), the counts from the masks
        assert len(calls) == 4

    def test_wasserstein_counts_window_once_per_batch(self, monkeypatch):
        samples = ReplicateBatch.ppp(WINDOW, 3.0, 500, rng_for(40))
        calls = self.record(monkeypatch)
        wasserstein_lower_bound(samples, partial(ReplicateBatch.ppp, WINDOW, 3.0),
                                planar_functional_family(WINDOW), rng_for(41))
        per_pair = Counter((region, id(pts)) for region, pts in calls)
        assert set(per_pair.values()) == {1}
        assert sum(region == WINDOW for region, _ in calls) == 2


class TestInvariance:
    def test_endpoints_and_middle(self):
        # region means kept below ~1 so the empirical-TV noise floor sits
        # well under the 2/sqrt(reps) tolerance
        threshold = 2.0 / math.sqrt(20_000)
        for k, t in enumerate((0.0, 0.5, 1.0)):
            thinned, fresh = invariance_check(0.5, WINDOW, t, 20_000, rng_for(20 + k))
            for region in (WINDOW, Rect(0, 0, 0.5, 1)):
                tv = empirical_count_tv(thinned.counts(region), fresh.counts(region))
                assert tv <= threshold, (t, region, tv)

    def test_joint_two_region_product(self):
        # joint occupancy of two disjoint regions also matches a fresh PPP:
        # E[1{A>=1} 1{B>=1}] agrees within 3 combined stderr, and the PPP
        # independence oracle (1-e^-mA)(1-e^-mB) agrees too
        from coxsim.pointprocess import ppp_batch, region_counts
        lam, t, reps = 0.8, 0.5, 30_000
        A, B = Rect(0, 0, 0.5, 1), Rect(0.5, 0, 1, 1)
        rng = rng_for(24)
        _, p1, i1 = ppp_batch(WINDOW, lam, reps, rng)
        _, p2, i2 = ppp_batch(WINDOW, lam, reps, rng)
        k1 = rng.random(p1.shape[0]) < t
        k2 = rng.random(p2.shape[0]) < (1.0 - t)
        _, p3, i3 = ppp_batch(WINDOW, lam, reps, rng)
        ca = (region_counts(p1[k1], i1[k1], A, reps)
              + region_counts(p2[k2], i2[k2], A, reps))
        cb = (region_counts(p1[k1], i1[k1], B, reps)
              + region_counts(p2[k2], i2[k2], B, reps))
        prod_thin = ((ca >= 1) & (cb >= 1)).astype(float)
        prod_fresh = ((region_counts(p3, i3, A, reps) >= 1)
                      & (region_counts(p3, i3, B, reps) >= 1)).astype(float)
        se = math.sqrt(prod_thin.var(ddof=1) / reps + prod_fresh.var(ddof=1) / reps)
        assert abs(prod_thin.mean() - prod_fresh.mean()) <= 3 * se
        oracle = (1 - math.exp(-lam * A.area)) * (1 - math.exp(-lam * B.area))
        assert abs(prod_thin.mean() - oracle) <= 4 * se

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            invariance_check(2.0, WINDOW, 1.5, 1000, rng_for(23))


class TestRateRegression:
    def test_exact_inverse_law(self):
        points = [(x, 7.0 / x) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
        fit = rate_regression(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square(self):
        points = [(x, 1.0 / x ** 2) for x in (1.0, 2.0, 4.0, 8.0)]
        assert rate_regression(points).slope == pytest.approx(-2.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_regression([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])
        with pytest.raises(ValueError):
            rate_regression([(1.0, 1.0), (2.0, 0.5), (2.0, 0.3), (4.0, 0.2)])
        with pytest.raises(ValueError):
            rate_regression([(1.0, 1.0), (2.0, 0.5), (4.0, 0.0), (8.0, 0.1)])


def max_one_point_change(family, draw, rng, reps=400) -> float:
    """Largest |F(w + x) - F(w)| and |F(w - y) - F(w)| over the family, for
    reps configurations w = draw(n) with n uniform in 0..12, a fresh point
    x = draw(1) and y the last point of w."""
    omegas = [draw(int(n)) for n in rng.integers(0, 13, reps)]
    base = batch(omegas)
    moved = [batch([np.vstack([w, draw(1)]) for w in omegas]),
             batch([w[:-1] for w in omegas])]
    return max(float(np.abs(F(b) - F(base)).max()) for F in family for b in moved)


class TestPresets:
    def test_planar_regions_disk(self):
        regions = dict(planar_region_set(Disk((0.0, 0.0), 1.0)))
        assert len(regions) == 20
        # grid cells tile the inscribed square
        cell_area = sum(r.measure for n, r in regions.items()
                        if n.startswith("cell_"))
        assert cell_area == pytest.approx(2.0)
        # annuli tile the disk
        ann_area = sum(r.measure for n, r in regions.items()
                       if n.startswith("annulus_"))
        assert ann_area == pytest.approx(math.pi)
        disk = regions["window"]
        for name, reg in regions.items():
            if name.startswith("cell_"):
                corners = np.array([[reg.x0, reg.y0], [reg.x0, reg.y1],
                                    [reg.x1, reg.y0], [reg.x1, reg.y1]])
                assert disk.contains(corners).all()

    def test_planar_regions_rect(self):
        regions = dict(planar_region_set(Rect(0, 0, 2, 1)))
        cell_area = sum(r.measure for n, r in regions.items()
                        if n.startswith("cell_"))
        assert cell_area == pytest.approx(1.0)  # 4x4 grid of the short side

    def test_sphere_regions(self):
        regions = dict(sphere_region_set())
        band_measure = sum(r.measure for n, r in regions.items()
                           if n.startswith("band_"))
        assert band_measure == pytest.approx(1.0)
        assert regions["cap_n08"].measure == pytest.approx(0.1)
        assert regions["sphere"].measure == pytest.approx(1.0)

    @staticmethod
    def assert_caps_match_rule(b: ReplicateBatch):
        regions = dict(sphere_region_set())
        for name, (axis, height) in POLAR_CAPS.items():
            assert np.array_equal(b.counts(regions[name]), cap_counts(b, axis, height)), name

    @pytest.mark.parametrize("n", [10, 160])
    def test_polar_caps_on_samples(self, n):
        # each polar cap is a LatitudeBand; it counts exactly the points that
        # the cap rule p . axis >= h admits
        model = MODELS["satellites"]
        _, pair = model.sample(model.params(model.c, n), None, 3000, rng_for(60 + n))
        self.assert_caps_match_rule(pair.model)
        self.assert_caps_match_rule(pair.twin)

    def test_polar_caps_on_edges(self):
        zs = (-1.0, -0.8, -0.5, 0.0, 0.5, 0.8, 1.0)
        edge = sphere_points([(math.sqrt(1.0 - z * z), 0.0, z) for z in zs])
        self.assert_caps_match_rule(batch([edge, sphere_points([]), edge[::2], -edge]))

    def test_families_are_lipschitz(self):
        # the estimators certify lower bounds only for functionals that move
        # by at most 1 when one point is added or removed
        disk, rect = Disk((0.0, 0.0), 1.0), Rect(-1.0, 0.0, 1.0, 1.0)
        sphere = partial(sample_uniform_sphere, rng_for(40))
        for family, draw in (
                (sphere_functional_family(), sphere),
                (planar_functional_family(disk), partial(disk.uniform, rng=rng_for(41))),
                (planar_functional_family(rect), partial(rect.uniform, rng=rng_for(42))),
                # check_glauber passes this family to contraction_estimate
                (glauber_functionals(WINDOW), partial(WINDOW.uniform, rng=rng_for(43)))):
            assert max_one_point_change(family, draw, rng_for(44)) <= 1.0
        # the check has power: a doubled count moves by 2
        doubled = Functional("2count", (disk,), lambda c: 2.0 * c[:, 0])
        draw = partial(disk.uniform, rng=rng_for(45))
        assert max_one_point_change([doubled], draw, rng_for(46)) == 2.0


class TestCountIndicator:
    @pytest.mark.parametrize("values", [[], [0], [3, 1], [2, 2, 7], [-1, 50]])
    def test_matches_isin(self, values):
        counts = rng_for(8).poisson(2.0, (500, 1))
        F = count_indicator(WINDOW, values)
        assert F.h(counts).tobytes() == np.isin(counts[:, 0], values).astype(float).tobytes()


class TestDistanceEstimate:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistanceEstimate(-0.1, 0.0, "w")
