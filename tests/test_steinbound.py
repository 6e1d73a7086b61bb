import math

import numpy as np
import pytest

from coxsim.geometry import Disk, Rect
from coxsim.pointprocess import ModelParams
from coxsim.steinbound import (INTEGRANDS, QuadratureError, QuadratureSpec,
                               chord_square_integral, coarea_check, cox_bound,
                               satellite_bound)
from coxsim.steinbound import _leggauss

UNIT_DISK = Disk((0.0, 0.0), 1.0)
TIGHT = QuadratureSpec(radial_nodes=64, angular_nodes=64, tol=1e-9, max_levels=8)

# windows that are not origin disks, each with a quadrature that resolves it,
# and the (value, error estimate) the midpoint rule gives there
OTHER_WINDOWS = {
    "offset_disk": (Disk((0.5, 0.0), 1.0), QuadratureSpec(64, 64, tol=1e-3),
                    (5.333331133553201, 7.78337392057793e-05)),
    "small_offset_disk": (Disk((0.4, 0.0), 0.6), QuadratureSpec(96, 96, tol=1e-4),
                          (1.1519991560112304, 5.61916825070341e-07)),
    "centered_square": (Rect(-0.5, -0.5, 0.5, 0.5), QuadratureSpec(128, 128, tol=5e-4),
                        (0.9463889464934883, 3.071105737117996e-05)),
    "offset_rect": (Rect(-0.4, -0.3, 0.5, 0.6), QuadratureSpec(64, 64, tol=1e-3),
                    (0.6898975266132157, 6.2718587192645e-05)),
}


class TestGaussNodes:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_cached_nodes_match_leggauss_and_are_read_only(self, n):
        x, w = _leggauss(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert _leggauss(n)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestChordSquareIntegral:
    def test_unit_disk_closed_form(self):
        # int_0^{2pi} int_0^1 (2 sqrt(1-r^2))^2 dr dtheta/pi = 2 * 8/3 = 16/3
        val, err = chord_square_integral(UNIT_DISK)
        assert abs(val - 16.0 / 3.0) < 1e-8
        assert err < 1e-8

    def test_cubic_scaling(self):
        v1, _ = chord_square_integral(Disk((0, 0), 1.0))
        v2, _ = chord_square_integral(Disk((0, 0), 2.0))
        assert v2 == pytest.approx(8.0 * v1, rel=1e-8)
        assert v2 == pytest.approx(16.0 * 8.0 / 3.0, rel=1e-8)

    def test_tiny_window_vanishes(self):
        val, _ = chord_square_integral(Disk((0, 0), 1e-4))
        assert val < 1e-10

    def test_rotation_invariance_offset_disk(self):
        # rotating the window about the origin leaves the integral unchanged
        q = QuadratureSpec(radial_nodes=96, angular_nodes=96, tol=1e-4)
        v1, e1 = chord_square_integral(Disk((0.4, 0.0), 0.6), q)
        v2, e2 = chord_square_integral(Disk((0.0, 0.4), 0.6), q)
        v3, e3 = chord_square_integral(Disk((0.4 / math.sqrt(2), 0.4 / math.sqrt(2)), 0.6), q)
        assert abs(v1 - v2) <= 3 * (e1 + e2) + 1e-6
        assert abs(v1 - v3) <= 3 * (e1 + e3) + 1e-6

    def test_monotone_nested_disks(self):
        vals = [chord_square_integral(Disk((0, 0), R))[0] for R in (0.5, 0.8, 1.0, 1.3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rect_window_converges(self):
        q = QuadratureSpec(radial_nodes=128, angular_nodes=128, tol=5e-4)
        val, err = chord_square_integral(Rect(-0.5, -0.5, 0.5, 0.5), q)
        assert err <= 5e-4
        # sanity: bounded by the disk circumscribing the square
        upper, _ = chord_square_integral(Disk((0, 0), math.sqrt(0.5)))
        assert 0.0 < val < upper

    def test_angular_grid_offset_stability(self):
        # different angular node counts shift the midpoint grid; estimates
        # must agree within the reported error budgets
        qa = QuadratureSpec(radial_nodes=64, angular_nodes=64, tol=1e-3)
        qb = QuadratureSpec(radial_nodes=64, angular_nodes=72, tol=1e-3)
        window = Rect(-0.4, -0.3, 0.5, 0.6)
        va, ea = chord_square_integral(window, qa)
        vb, eb = chord_square_integral(window, qb)
        assert abs(va - vb) <= 3 * (ea + eb)

    def test_node_doubling_convergence(self):
        # successive doubling errors of the midpoint rule shrink by at least
        # 2x on the centred square (ratios 5.4 and 3.3; Gauss-Legendre gives
        # 2.2 and 1.1 there, which is why only origin disks use it)
        window = Rect(-0.5, -0.5, 0.5, 0.5)

        def refine_error(nodes):
            q = QuadratureSpec(radial_nodes=nodes, angular_nodes=nodes, tol=1e300,
                               max_levels=1)
            return chord_square_integral(window, q)[1]

        e1 = refine_error(16)    # |I(32) - I(16)|
        e2 = refine_error(32)    # |I(64) - I(32)|
        e3 = refine_error(64)
        assert e1 / e2 >= 2.0
        assert e2 / e3 >= 2.0

    def test_non_convergent_reported(self):
        q = QuadratureSpec(radial_nodes=8, angular_nodes=8, tol=1e-14, max_levels=1)
        with pytest.raises(QuadratureError):
            chord_square_integral(Rect(-0.5, -0.5, 0.5, 0.5), q)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_nodes=4)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.7])
    def test_origin_disk_is_exact(self, radius):
        # Gauss-Legendre integrates the polynomial 4(R^2 - r^2) exactly
        val, err = chord_square_integral(Disk((0.0, 0.0), radius))
        assert val == pytest.approx(16.0 * radius ** 3 / 3.0, rel=1e-12)
        assert err < 1e-12 * val

    @pytest.mark.parametrize("window, quad, expected", OTHER_WINDOWS.values(),
                             ids=OTHER_WINDOWS.keys())
    def test_other_windows_use_midpoint(self, window, quad, expected):
        val, err = chord_square_integral(window, quad)
        assert val == pytest.approx(expected[0], rel=1e-13)
        assert err == pytest.approx(expected[1], rel=1e-9)


class TestCoxBound:
    def test_value_c1_lam10(self):
        bound = cox_bound(ModelParams.planar(1.0, 10.0), UNIT_DISK)
        assert bound == pytest.approx(16.0 / 30.0, abs=1e-12)

    def test_halves_when_lambda_doubles(self):
        r1 = cox_bound(ModelParams.planar(1.0, 10.0), UNIT_DISK)
        r2 = cox_bound(ModelParams.planar(1.0, 20.0), UNIT_DISK)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-10)

    def test_quadruples_when_c_doubles(self):
        r1 = cox_bound(ModelParams.planar(1.0, 10.0), UNIT_DISK)
        r2 = cox_bound(ModelParams.planar(2.0, 10.0), UNIT_DISK)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-10)

    def test_closed_form_agreement_invariant(self):
        # the reported bound matches the quadrature-based (c^2/lambda) G(K)
        params = ModelParams.planar(1.5, 7.0)
        bound = cox_bound(params, Disk((0, 0), 1.2))
        val, err = chord_square_integral(Disk((0, 0), 1.2))
        scale = params.c ** 2 / params.lambda_n
        assert abs(bound - scale * val) <= max(3 * scale * err, 1e-10)

    @pytest.mark.parametrize("window, quad, _midpoint", OTHER_WINDOWS.values(),
                             ids=OTHER_WINDOWS.keys())
    def test_closed_form_matches_quadrature(self, window, quad, _midpoint):
        # closed form for off-centre disks and rects, against the
        # independent chord-square quadrature (c = lambda = 1 gives G)
        bound = cox_bound(ModelParams.planar(1.0, 1.0), window)
        val, err = chord_square_integral(window, quad)
        assert abs(bound - val) <= 3 * err

    def test_unit_square_closed_form(self):
        # [(2/3)(2 - 2^1.5) + 4 asinh(1)] / pi
        bound = cox_bound(ModelParams.planar(1.0, 10.0), Rect(0, 0, 1, 1))
        assert bound == pytest.approx(0.0946402009, abs=1e-10)
        # motion invariance: translating the window leaves G unchanged
        moved = cox_bound(ModelParams.planar(1.0, 10.0), Rect(3, -2, 4, -1))
        assert moved == pytest.approx(bound, rel=1e-14)

    def test_requires_planar(self):
        with pytest.raises(ValueError):
            cox_bound(ModelParams.spherical(1.0, 5), UNIT_DISK)


class TestSatelliteBound:
    def test_c2_n100(self):
        bound = satellite_bound(ModelParams.spherical(2.0, 100))
        assert bound == pytest.approx(0.08, abs=1e-15)

    def test_c1_n1(self):
        bound = satellite_bound(ModelParams.spherical(1.0, 1))
        assert bound == pytest.approx(2.0, abs=1e-15)

    def test_halves_when_n_doubles(self):
        r1 = satellite_bound(ModelParams.spherical(2.0, 50))
        r2 = satellite_bound(ModelParams.spherical(2.0, 100))
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_requires_spherical(self):
        with pytest.raises(ValueError):
            satellite_bound(ModelParams.planar(1.0, 5.0))


class TestCoarea:
    def test_square_in_half_plane(self):
        # [0,1]^2 lies in {x >= 0}: the identity holds with ratio 1
        res = coarea_check("one", Rect(0, 0, 1, 1), 0.0, TIGHT)
        assert abs(res.ratio - 1.0) < 1e-6
        assert res.lhs == pytest.approx(1.0, abs=1e-9)

    def test_origin_disk_half(self):
        # only the half-disk {x >= 0} is swept by r >= 0: ratio 1/2
        res = coarea_check("one", UNIT_DISK, 0.0, TIGHT)
        assert abs(res.ratio - 0.5) < 1e-6
        assert res.lhs == pytest.approx(math.pi, abs=1e-8)
        assert res.rhs == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_translated_square(self):
        res = coarea_check("one", Rect(3.0, -0.5, 4.0, 0.5), 0.0, TIGHT)
        assert abs(res.ratio - 1.0) < 1e-6

    def test_translated_disk_xsq(self):
        # window fully in the positive half-plane: identity for any integrand
        res = coarea_check("xsq", Disk((3.0, 0.0), 0.7), 0.0, TIGHT)
        assert abs(res.ratio - 1.0) < 1e-6

    def test_disk_xsq_half(self):
        # lhs = int_disk x^2 = pi R^4 / 4; rhs (theta=0) = int_0^R 2 r^2
        # sqrt(R^2-r^2) dr = pi R^4 / 8: ratio 1/2
        res = coarea_check("xsq", UNIT_DISK, 0.0, TIGHT)
        assert res.lhs == pytest.approx(math.pi / 4.0, abs=1e-8)
        assert res.rhs == pytest.approx(math.pi / 8.0, abs=1e-8)
        assert abs(res.ratio - 0.5) < 1e-6

    def test_other_theta(self):
        # same half-plane geometry at theta = pi/2 for a window above y = 0
        for integrand in ("one", "xsq"):
            res = coarea_check(integrand, Rect(-0.5, 0.2, 0.5, 1.2), math.pi / 2.0, TIGHT)
            assert abs(res.ratio - 1.0) < 1e-6

    @pytest.mark.parametrize("window", [Disk((0.4, -0.3), 0.8), Rect(0.3, -1.2, 1.5, 0.4)],
                             ids=["off_centre_disk", "off_origin_rect"])
    def test_closed_form_xsq_area_integral(self, window):
        # a 2-D Gauss-Legendre tensor sum: exact for the polynomial x^2 on the
        # rect and for the radial factor on the disk, and converged to
        # rounding for the disk's trigonometric angular factor
        x, w = np.polynomial.legendre.leggauss(16)

        def nodes(a, b):
            return a + (b - a) * (x + 1) / 2, (b - a) * w / 2

        if isinstance(window, Disk):
            rho, w_rho = nodes(0.0, window.radius)
            phi, w_phi = nodes(0.0, 2.0 * math.pi)
            vals = (window.center[0] + rho[:, None] * np.cos(phi)) ** 2 * rho[:, None]
            expected = w_rho @ vals @ w_phi
        else:
            xs, w_x = nodes(window.x0, window.x1)
            _, w_y = nodes(window.y0, window.y1)
            expected = w_x @ np.outer(xs ** 2, np.ones_like(w_y)) @ w_y
        area_integral, _ = INTEGRANDS["xsq"]
        assert area_integral(window) == pytest.approx(expected, rel=1e-13)

    def test_unknown_integrand(self):
        for integrand in ("cubic", "gauss"):
            with pytest.raises(ValueError):
                coarea_check(integrand, UNIT_DISK, 0.0, TIGHT)
