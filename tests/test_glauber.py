import math

import numpy as np
import pytest

from coxsim.diagnostics import (ClosePair, Functional,
                                count_at_least, count_indicator,
                                empirical_count_tv, glauber_functionals,
                                poisson_pmf, raw_count, truncated_count)
from coxsim.geometry import Rect
from coxsim.harness import mc_row, stream
from coxsim.glauber import (GlauberSpec, contraction_estimate, generator_apply,
                            glauber_simulate, semigroup_sample,
                            semigroup_trajectory_consistency)
from coxsim.pointprocess import ReplicateBatch, sample_ppp_window, sample_uniform_sphere
from oracles import batch, multiset, plane_points, plus, replicate, sphere_points

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)
SPEC = GlauberSpec(WINDOW, lam=1.5)
OMEGA0 = plane_points([[0.2, 0.2], [0.8, 0.3], [0.5, 0.7], [0.3, 0.9]])


def rng_for(idx, seed=2025):
    return stream(seed, 0, 0, idx)


def repeat(points, reps):
    return batch([points] * reps)


def sizes(b):
    return np.bincount(b.rep_ids, minlength=len(b))


def value(F, points):
    """F on a single configuration."""
    return F(batch([points]))[0]


def scalar_glauber(omega0, spec, rng, horizon):
    """Reference event loop: one trajectory, one event at a time, with the
    randomness consumed in blocks of 256."""
    pts = [row.copy() for row in omega0]
    b = spec.birth_rate
    t = 0.0
    block = 256
    exps = rng.exponential(size=block)
    unis = rng.random(size=block)
    k = 0
    while True:
        if k >= block:
            exps = rng.exponential(size=block)
            unis = rng.random(size=block)
            k = 0
        rate = b + len(pts)
        t += exps[k] / rate
        if t > horizon:
            break
        u = unis[k] * rate
        if u < b:
            pts.append(spec.window.uniform(1, rng)[0])
        else:
            pts.pop(int(u - b))
        k += 1
    return plane_points(pts)


class TestTrajectory:
    def test_time_zero_is_identity(self):
        out = glauber_simulate(batch([OMEGA0]), SPEC, rng_for(0), horizon=0.0)
        assert multiset(replicate(out, 0)) == multiset(OMEGA0)

    def test_immigration_death_mean(self):
        # from the empty configuration, E|G_t| solves m' = lam|W| - m, so
        # m(t) = lam |W| (1 - e^-t)
        rng = rng_for(1)
        for t in (0.3, 1.0):
            ns = sizes(glauber_simulate(repeat(plane_points([]), 4000),
                                        SPEC, rng, horizon=t))
            expect = SPEC.birth_rate * (1.0 - math.exp(-t))
            se = ns.std(ddof=1) / math.sqrt(ns.size)
            assert abs(ns.mean() - expect) < 3 * se

    def test_ergodic_long_run(self):
        # at t = 20 the state is indistinguishable from the stationary PPP
        rng = rng_for(2)
        reps = 4000
        na = sizes(glauber_simulate(repeat(OMEGA0, reps), SPEC, rng, horizon=20.0))
        nb = np.array([len(sample_ppp_window(WINDOW, SPEC.lam, rng))
                       for _ in range(reps)])
        assert empirical_count_tv(na, nb) < 2.0 / math.sqrt(reps)

    def test_points_stay_inside(self):
        out = glauber_simulate(batch([OMEGA0]), SPEC, rng_for(3), horizon=5.0)
        assert WINDOW.contains(out.points).all() or len(out.points) == 0

    @pytest.mark.parametrize("horizon", [-1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, horizon):
        # an infinite horizon would never stop the event loop
        with pytest.raises(ValueError):
            glauber_simulate(batch([OMEGA0]), SPEC, rng_for(4), horizon=horizon)

    def test_rejects_outside_start(self):
        bad = plane_points([[2.0, 2.0]])
        with pytest.raises(ValueError):
            glauber_simulate(batch([bad]), SPEC, rng_for(4), horizon=1.0)


LEFT = Rect(0.0, 0.0, 0.5, 1.0)
Z_999 = 3.090  # standard normal 0.999 quantile


def chi2_crit(df):
    """Wilson-Hilferty approximation of the chi-square 0.999 quantile."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + Z_999 * math.sqrt(a)) ** 3


def pool_labels(expected):
    """Group adjacent count bins until each group expects at least 5."""
    labels = np.empty(expected.size, dtype=int)
    group, acc = 0, 0.0
    for k, e in enumerate(expected):
        labels[k] = group
        acc += e
        if acc >= 5.0:
            group, acc = group + 1, 0.0
    if labels[-1] == group and group > 0:
        labels[labels == group] = group - 1
    return labels


def g_test(counts, pmf):
    """G statistic and degrees of freedom of integer samples against a pmf."""
    size = max(pmf.size, int(counts.max()) + 1)
    expected = counts.size * np.pad(pmf, (0, size - pmf.size))
    labels = pool_labels(expected)
    obs = np.bincount(labels, np.bincount(counts, minlength=size))
    exp = np.bincount(labels, expected)
    nz = obs > 0
    return 2.0 * float((obs[nz] * np.log(obs[nz] / exp[nz])).sum()), obs.size - 1


def homogeneity(a, b):
    """Chi-square statistic and degrees of freedom for two integer samples
    having one law."""
    size = max(int(a.max()), int(b.max())) + 1
    oa, ob = np.bincount(a, minlength=size), np.bincount(b, minlength=size)
    pooled = (oa + ob) / (a.size + b.size)
    labels = pool_labels(min(a.size, b.size) * pooled)
    stat = 0.0
    for obs, n in ((oa, a.size), (ob, b.size)):
        exp = n * np.bincount(labels, pooled)
        stat += float(((np.bincount(labels, obs) - exp) ** 2 / exp).sum())
    return stat, labels.max()


def law_pmf(omega, region, spec, t):
    """Exact count law in the region at time t from omega:
    Binomial(#(omega in region), e^-t) + Poisson(lam |region| (1 - e^-t))."""
    n_in, p = int(region.contains(omega).sum()), math.exp(-t)
    binom = np.array([math.comb(n_in, k) * p ** k * (1.0 - p) ** (n_in - k)
                      for k in range(n_in + 1)])
    return np.convolve(binom, poisson_pmf(spec.lam * region.area * (1.0 - p))[0])


class TestLockstepLaw:
    """The batched simulator against the exact count law and against the
    one-trajectory event loop, each at a fixed seed and level 0.001."""

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_counts_follow_exact_law(self, t):
        out = glauber_simulate(repeat(OMEGA0, 20_000), SPEC, rng_for(30), horizon=t)
        assert WINDOW.contains(out.points).all()
        for region in (WINDOW, LEFT):
            g, df = g_test(out.counts(region), law_pmf(OMEGA0, region, SPEC, t))
            assert g < chi2_crit(df), (region.describe(), g, df)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_matches_scalar_event_loop(self, t):
        rng = rng_for(31)
        oracle = batch([scalar_glauber(OMEGA0, SPEC, rng, t) for _ in range(4000)])
        out = glauber_simulate(repeat(OMEGA0, 20_000), SPEC, rng, horizon=t)
        for region in (WINDOW, LEFT):
            stat, df = homogeneity(out.counts(region), oracle.counts(region))
            assert stat < chi2_crit(df), (region.describe(), stat, df)

    def test_empty_replicates_get_births(self):
        # empty starts interleaved with OMEGA0, one trailing empty replicate
        empty = plane_points([])
        starts = batch([empty, OMEGA0] * 10_000 + [empty])
        out = glauber_simulate(starts, SPEC, rng_for(32), horizon=1.0)
        counts = out.counts(WINDOW)
        for omega, sub in ((empty, counts[0::2]), (OMEGA0, counts[1::2])):
            g, df = g_test(sub, law_pmf(omega, WINDOW, SPEC, 1.0))
            assert g < chi2_crit(df), (len(omega), g, df)
        assert counts[0::2].max() > 0

    def test_high_intensity_start_grows(self):
        # 60 starting points at lam = 300: replicates reach more than twice
        # their starting size
        omega = WINDOW.uniform(60, rng_for(33))
        spec = GlauberSpec(WINDOW, lam=300.0)
        out = glauber_simulate(repeat(omega, 4000), spec, rng_for(34), horizon=0.5)
        assert WINDOW.contains(out.points).all()
        assert sizes(out).max() > 2 * len(omega)
        for region in (WINDOW, LEFT):
            g, df = g_test(out.counts(region), law_pmf(omega, region, spec, 0.5))
            assert g < chi2_crit(df), (region.describe(), g, df)

    def test_horizon_zero_returns_every_start(self):
        configs = [plane_points([]), OMEGA0,
                   plane_points([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]),
                   plane_points([])]
        # a superposition leaves the replicates' points out of replicate order
        starts = batch(configs).superpose(batch(configs[::-1]))
        out = glauber_simulate(starts, SPEC, rng_for(35), horizon=0.0)
        for j, omega in enumerate(configs):
            both = np.vstack([omega, configs[len(configs) - 1 - j]])
            assert multiset(replicate(out, j)) == multiset(both)


class TestFinalGather:
    @pytest.mark.parametrize("lam, horizon", [(0.5, 1.0), (300.0, 0.5)])
    def test_matches_mask_indexing_of_the_buffer(self, monkeypatch, lam, horizon):
        # the (2, reps, width) buffer's live prefixes, gathered as buf[:, keep]
        # and coordinate-major; at lam 300 the buffer grows past its first width of 8
        calls, compress = [], np.compress

        def spy(condition, a, axis=None):
            calls.append((condition, a))
            return compress(condition, a, axis=axis)

        monkeypatch.setattr(np, "compress", spy)
        starts = batch([plane_points([]), OMEGA0] * 500)
        out = glauber_simulate(starts, GlauberSpec(WINDOW, lam), rng_for(36), horizon)
        monkeypatch.undo()
        (flat_keep, flat_buf), = calls
        buf = flat_buf.base
        keep = flat_keep.reshape(buf.shape[1:])
        assert buf.shape[:2] == (2, len(starts)) and (buf.shape[2] > 8) == (lam > 1)
        assert np.array_equal(out.points, buf[:, keep].T) and out.points.T.flags.c_contiguous
        assert np.array_equal(out.rep_ids, np.nonzero(keep)[0])


class TestSemigroup:
    def test_t_zero_exact(self):
        # at t = 0 every point survives and no fresh point is born
        rng = rng_for(5)
        for _ in range(10):
            out = semigroup_sample(batch([OMEGA0]), 0.0, SPEC, rng)
            assert multiset(replicate(out, 0)) == multiset(OMEGA0)

    def test_large_t_converges_to_stationary_mean(self):
        # P_t F(w) -> E F(Phi) as t grows, for any start
        F = truncated_count(WINDOW, 3)
        rng = rng_for(6)
        vals = F(semigroup_sample(repeat(OMEGA0, 4000), 15.0, SPEC, rng))
        ref = F(batch([sample_ppp_window(WINDOW, SPEC.lam, rng)
                       for _ in range(4000)]))
        se = math.sqrt(vals.var(ddof=1) / vals.size + ref.var(ddof=1) / ref.size)
        assert abs(vals.mean() - ref.mean()) < 3 * se

    def test_stationarity(self):
        # E[P_t F(Phi)] = E[F(Phi)] for Phi ~ PPP
        F = count_at_least((Rect(0, 0, 0.5, 1), 1))
        rng = rng_for(7)
        n = 4000
        phi = ReplicateBatch.ppp(WINDOW, SPEC.lam, n, rng)
        a = F(semigroup_sample(phi, 0.7, SPEC, rng))
        b = F(ReplicateBatch.ppp(WINDOW, SPEC.lam, n, rng))
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 3 * se

    def test_trajectory_consistency_t0(self):
        traj, thinned = semigroup_trajectory_consistency(OMEGA0, SPEC, 0.0, 1000, rng_for(8))
        assert empirical_count_tv(traj.counts(WINDOW), thinned.counts(WINDOW)) == 0.0

    def test_trajectory_consistency_intermediate(self):
        traj, thinned = semigroup_trajectory_consistency(OMEGA0, SPEC, 0.5, 4000, rng_for(9))
        tv = empirical_count_tv(traj.counts(WINDOW), thinned.counts(WINDOW))
        assert tv <= 2.0 / math.sqrt(4000)

    def test_semigroup_composition(self):
        # iterating s then t matches a single step of s + t in law
        rng = rng_for(10)
        reps, s, t = 5000, 0.4, 0.9
        starts = repeat(OMEGA0, reps)
        na = sizes(semigroup_sample(semigroup_sample(starts, s, SPEC, rng), t, SPEC, rng))
        nb = sizes(semigroup_sample(starts, s + t, SPEC, rng))
        assert empirical_count_tv(na, nb) < 2.0 / math.sqrt(reps)


class TestGenerator:
    def test_constant_functional(self):
        F = Functional("const", (), lambda c: np.full(len(c), 2.5))
        [[val]] = generator_apply([F], batch([OMEGA0]), SPEC, rng_for(11))
        assert val == 0.0

    def test_count_functional_exact(self):
        # F = |w|: death sum -|w|, birth integral lam|W| (integrand constant 1)
        F = raw_count(WINDOW)
        [[val]] = generator_apply([F], batch([OMEGA0]), SPEC, rng_for(12))
        assert val == pytest.approx(SPEC.birth_rate - len(OMEGA0), abs=1e-12)

    def test_zero_mean_at_stationarity(self):
        # E[L F(Phi)] = 0 for the stationary PPP
        rng = rng_for(13)
        functionals = (truncated_count(WINDOW, 3),
                       count_indicator(WINDOW, {0, 1}),
                       count_at_least((Rect(0, 0, 0.5, 1), 2)))
        n = 6000
        phi = ReplicateBatch.ppp(WINDOW, SPEC.lam, n, rng)
        for vals in generator_apply(functionals, phi, SPEC, rng).T:
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean()) < 3 * se


class TestContraction:
    Z = (0.6, 0.35)
    OMEGA = plane_points([[0.25, 0.4], [0.7, 0.6]])

    def test_t_zero_lipschitz(self):
        F = truncated_count(WINDOW, 3)
        [diffs] = contraction_estimate([F], self.OMEGA, self.Z, 0.0, SPEC, 200, rng_for(14))
        # at t = 0 every replicate is omega itself and z always survives
        assert diffs.shape == (200,)
        np.testing.assert_array_equal(
            diffs, abs(value(F, plus(self.OMEGA, self.Z)) - value(F, self.OMEGA)))
        assert diffs.mean() <= 1.0

    def test_exponential_decay(self):
        for t in (0.5, 1.0, 2.0):
            for F in (truncated_count(WINDOW, 3),
                      count_indicator(WINDOW, {0, 1, 2})):
                [diffs] = contraction_estimate([F], self.OMEGA, self.Z, t, SPEC,
                                               3000, rng_for(15))
                row = mc_row("contraction", diffs, math.exp(-t), 0, one_sided=True)
                assert row.passed, row

    def test_constant_is_zero(self):
        F = Functional("const", (), lambda c: np.full(len(c), 1.0))
        [diffs] = contraction_estimate([F], self.OMEGA, self.Z, 0.5, SPEC, 500, rng_for(16))
        assert not diffs.any()

    def test_rejects_outside_z(self):
        F = truncated_count(WINDOW, 3)
        with pytest.raises(ValueError):
            contraction_estimate([F], self.OMEGA, (2.0, 2.0), 0.5, SPEC, 100,
                                 rng_for(17))


class TestFunctionalRegistry:
    def test_planar_lipschitz_certification(self):
        # |F(w + x) - F(w)| <= 1 for every functional of the family
        rng = rng_for(19)
        functionals = glauber_functionals(WINDOW)
        for _ in range(300):
            n = int(rng.integers(0, 6))
            omega = WINDOW.uniform(n, rng)
            x = WINDOW.uniform(1, rng)[0]
            for F in functionals:
                assert abs(value(F, plus(omega, x)) - value(F, omega)) <= 1.0 + 1e-12

    def test_sphere_lipschitz_certification(self):
        rng = rng_for(20)
        functionals = [ClosePair(0.99), ClosePair(0.999)]
        for _ in range(200):
            n = int(rng.integers(0, 6))
            omega = sample_uniform_sphere(rng, n)
            x = sample_uniform_sphere(rng, 1)
            for F in functionals:
                assert abs(value(F, plus(omega, x)) - value(F, omega)) <= 1.0

    def test_indicator_values(self):
        F = count_indicator(WINDOW, {2})
        assert value(F, plane_points([[0.1, 0.1], [0.2, 0.2]])) == 1.0
        assert value(F, plane_points([[0.1, 0.1]])) == 0.0

    def test_product_indicator(self):
        left = Rect(0, 0, 0.5, 1)
        right = Rect(0.5, 0, 1, 1)
        F = count_at_least((left, 1), (right, 1))
        assert value(F, plane_points([[0.2, 0.5], [0.8, 0.5]])) == 1.0
        assert value(F, plane_points([[0.2, 0.5]])) == 0.0

    def test_close_pair_detects(self):
        F = ClosePair(0.99)
        near = sphere_points([[1.0, 0.0, 0.0], [0.999, math.sqrt(1 - 0.999 ** 2), 0.0]])
        anti = sphere_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        far = sphere_points([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert value(F, near) == 1.0
        assert value(F, anti) == 1.0
        assert value(F, far) == 0.0
        assert value(F, sphere_points([])) == 0.0
