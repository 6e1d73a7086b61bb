import math

import numpy as np
import pytest

from coxsim.diagnostics import (Functional, close_pair_indicator,
                                count_at_least, count_indicator,
                                empirical_count_tv, glauber_functionals,
                                raw_count, truncated_count)
from coxsim.geometry import Rect
from coxsim.glauber import (GlauberSpec, contraction_estimate, generator_apply,
                            glauber_simulate, semigroup_sample,
                            semigroup_trajectory_consistency)
from coxsim.pointprocess import (PLANE, SPHERE, Configuration, ReplicateBatch,
                                 RngStream, sample_ppp_window,
                                 sample_uniform_sphere, superpose,
                                 uniform_in_window)

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)
SPEC = GlauberSpec(WINDOW, lam=1.5, horizon=20.0)
OMEGA0 = Configuration([[0.2, 0.2], [0.8, 0.3], [0.5, 0.7], [0.3, 0.9]], PLANE)


def rng_for(idx, seed=2025):
    return RngStream(seed, idx).generator()


def batch(configs):
    return ReplicateBatch.stack([c.points for c in configs], configs[0].space)


def value(F, cfg):
    """F on a single configuration."""
    return F(batch([cfg]))[0]


def plus(cfg, x):
    return superpose(cfg, Configuration([x], cfg.space))


class TestTrajectory:
    def test_time_zero_is_identity(self):
        out = glauber_simulate(OMEGA0, SPEC, rng_for(0), horizon=0.0)
        assert out == OMEGA0

    def test_immigration_death_mean(self):
        # from the empty configuration, E|G_t| solves m' = lam|W| - m, so
        # m(t) = lam |W| (1 - e^-t)
        rng = rng_for(1)
        for t in (0.3, 1.0):
            ns = np.array([len(glauber_simulate(Configuration.empty(PLANE),
                                                SPEC, rng, horizon=t))
                           for _ in range(4000)])
            expect = SPEC.birth_rate * (1.0 - math.exp(-t))
            se = ns.std(ddof=1) / math.sqrt(ns.size)
            assert abs(ns.mean() - expect) < 3 * se

    def test_ergodic_long_run(self):
        # at t = 20 the state is indistinguishable from the stationary PPP
        rng = rng_for(2)
        reps = 4000
        na = np.array([len(glauber_simulate(OMEGA0, SPEC, rng))
                       for _ in range(reps)])
        nb = np.array([len(sample_ppp_window(WINDOW, SPEC.lam, rng))
                       for _ in range(reps)])
        assert empirical_count_tv(na, nb) < 2.0 / math.sqrt(reps)

    def test_points_stay_inside(self):
        out = glauber_simulate(OMEGA0, SPEC, rng_for(3), horizon=5.0)
        assert WINDOW.contains(out.points).all() or len(out) == 0

    def test_rejects_outside_start(self):
        bad = Configuration([[2.0, 2.0]], PLANE)
        with pytest.raises(ValueError):
            glauber_simulate(bad, SPEC, rng_for(4))


class TestSemigroup:
    def test_t_zero_exact(self):
        # at t = 0 every point survives and no fresh point is born
        rng = rng_for(5)
        for _ in range(10):
            assert semigroup_sample(OMEGA0, 0.0, SPEC, rng) == OMEGA0

    def test_large_t_converges_to_stationary_mean(self):
        # P_t F(w) -> E F(Phi) as t grows, for any start
        F = truncated_count(WINDOW, 3)
        rng = rng_for(6)
        vals = F(batch([semigroup_sample(OMEGA0, 15.0, SPEC, rng)
                        for _ in range(4000)]))
        ref = F(batch([sample_ppp_window(WINDOW, SPEC.lam, rng)
                       for _ in range(4000)]))
        se = math.sqrt(vals.var(ddof=1) / vals.size + ref.var(ddof=1) / ref.size)
        assert abs(vals.mean() - ref.mean()) < 3 * se

    def test_stationarity(self):
        # E[P_t F(Phi)] = E[F(Phi)] for Phi ~ PPP
        F = count_at_least((Rect(0, 0, 0.5, 1), 1))
        rng = rng_for(7)
        n = 4000
        evolved, fresh = [], []
        for i in range(n):
            phi = sample_ppp_window(WINDOW, SPEC.lam, rng)
            evolved.append(semigroup_sample(phi, 0.7, SPEC, rng))
            fresh.append(sample_ppp_window(WINDOW, SPEC.lam, rng))
        a = F(batch(evolved))
        b = F(batch(fresh))
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 3 * se

    def test_trajectory_consistency_t0(self):
        rows = semigroup_trajectory_consistency(
            OMEGA0, SPEC, 0.0, [("window", WINDOW)], 1000, rng_for(8))
        assert rows[0][1] == 0.0

    def test_trajectory_consistency_intermediate(self):
        rows = semigroup_trajectory_consistency(
            OMEGA0, SPEC, 0.5, [("window", WINDOW)], 4000, rng_for(9))
        name, tv, threshold = rows[0]
        assert tv <= threshold

    def test_semigroup_composition(self):
        # iterating s then t matches a single step of s + t in law
        rng = rng_for(10)
        reps, s, t = 5000, 0.4, 0.9
        na = np.empty(reps, dtype=int)
        nb = np.empty(reps, dtype=int)
        for i in range(reps):
            na[i] = len(semigroup_sample(semigroup_sample(OMEGA0, s, SPEC, rng),
                                         t, SPEC, rng))
            nb[i] = len(semigroup_sample(OMEGA0, s + t, SPEC, rng))
        assert empirical_count_tv(na, nb) < 2.0 / math.sqrt(reps)


class TestGenerator:
    def test_constant_functional(self):
        F = Functional("const", (), lambda c: np.full(len(c), 2.5))
        val, se = generator_apply(F, OMEGA0, SPEC, 16, rng_for(11))
        assert val == 0.0
        assert se == 0.0

    def test_count_functional_exact(self):
        # F = |w|: death sum -|w|, birth integral lam|W| (integrand constant 1)
        F = raw_count(WINDOW)
        val, se = generator_apply(F, OMEGA0, SPEC, 8, rng_for(12))
        assert val == pytest.approx(SPEC.birth_rate - len(OMEGA0), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_zero_mean_at_stationarity(self):
        # E[L F(Phi)] = 0 for the stationary PPP
        rng = rng_for(13)
        for F in (truncated_count(WINDOW, 3),
                  count_indicator(WINDOW, {0, 1}),
                  count_at_least((Rect(0, 0, 0.5, 1), 2))):
            n = 1500
            vals = np.empty(n)
            for i in range(n):
                phi = sample_ppp_window(WINDOW, SPEC.lam, rng)
                vals[i], _ = generator_apply(F, phi, SPEC, 24, rng)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean()) < 3 * se


class TestContraction:
    Z = (0.6, 0.35)
    OMEGA = Configuration([[0.25, 0.4], [0.7, 0.6]], PLANE)

    def test_t_zero_lipschitz(self):
        F = truncated_count(WINDOW, 3)
        val, _ = contraction_estimate(F, self.OMEGA, self.Z, 0.0, SPEC, 200,
                                      rng_for(14))
        assert val <= 1.0
        assert val == abs(value(F, plus(self.OMEGA, self.Z)) - value(F, self.OMEGA))

    def test_exponential_decay(self):
        for t in (0.5, 1.0, 2.0):
            for F in (truncated_count(WINDOW, 3),
                      count_indicator(WINDOW, {0, 1, 2})):
                est, se = contraction_estimate(F, self.OMEGA, self.Z, t, SPEC,
                                               3000, rng_for(15))
                assert est <= math.exp(-t) + 3 * se

    def test_constant_is_zero(self):
        F = Functional("const", (), lambda c: np.full(len(c), 1.0))
        est, se = contraction_estimate(F, self.OMEGA, self.Z, 0.5, SPEC, 500,
                                       rng_for(16))
        assert est == 0.0

    def test_rejects_outside_z(self):
        F = truncated_count(WINDOW, 3)
        with pytest.raises(ValueError):
            contraction_estimate(F, self.OMEGA, (2.0, 2.0), 0.5, SPEC, 100,
                                 rng_for(17))

    def test_rejects_non_lipschitz(self):
        F = Functional("bad", (WINDOW,), lambda c: 5.0 * c[:, 0], lipschitz=False)
        with pytest.raises(ValueError):
            contraction_estimate(F, self.OMEGA, self.Z, 0.5, SPEC, 100,
                                 rng_for(18))


class TestFunctionalRegistry:
    def test_planar_lipschitz_certification(self):
        # |F(w + x) - F(w)| <= 1 for every flagged functional
        rng = rng_for(19)
        functionals = glauber_functionals(WINDOW)
        for _ in range(300):
            n = int(rng.integers(0, 6))
            omega = Configuration(uniform_in_window(WINDOW, n, rng), PLANE)
            x = uniform_in_window(WINDOW, 1, rng)[0]
            for F in functionals:
                if F.lipschitz:
                    assert abs(value(F, plus(omega, x)) - value(F, omega)) <= 1.0 + 1e-12

    def test_sphere_lipschitz_certification(self):
        rng = rng_for(20)
        functionals = [close_pair_indicator(0.99), close_pair_indicator(0.999)]
        for _ in range(200):
            n = int(rng.integers(0, 6))
            omega = Configuration(sample_uniform_sphere(rng, n), SPHERE)
            x = sample_uniform_sphere(rng)
            for F in functionals:
                assert abs(value(F, plus(omega, x)) - value(F, omega)) <= 1.0

    def test_raw_count_flagged_unbounded(self):
        F = raw_count(WINDOW)
        assert F.lipschitz and not F.bounded

    def test_indicator_values(self):
        F = count_indicator(WINDOW, {2})
        assert value(F, Configuration([[0.1, 0.1], [0.2, 0.2]], PLANE)) == 1.0
        assert value(F, Configuration([[0.1, 0.1]], PLANE)) == 0.0

    def test_product_indicator(self):
        left = Rect(0, 0, 0.5, 1)
        right = Rect(0.5, 0, 1, 1)
        F = count_at_least((left, 1), (right, 1))
        assert value(F, Configuration([[0.2, 0.5], [0.8, 0.5]], PLANE)) == 1.0
        assert value(F, Configuration([[0.2, 0.5]], PLANE)) == 0.0

    def test_close_pair_detects(self):
        F = close_pair_indicator(0.99)
        near = Configuration([[1.0, 0.0, 0.0], [0.999, math.sqrt(1 - 0.999 ** 2), 0.0]],
                             SPHERE)
        anti = Configuration([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], SPHERE)
        far = Configuration([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], SPHERE)
        assert value(F, near) == 1.0
        assert value(F, anti) == 1.0
        assert value(F, far) == 0.0
        assert value(F, Configuration.empty(SPHERE)) == 0.0
