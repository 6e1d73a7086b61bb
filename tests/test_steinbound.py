import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from coxsim.geometry import Disk, Rect
from coxsim.pointprocess import ModelParams
from coxsim.steinbound import (QuadratureError, chord_square_integral, coarea_check,
                               cox_bound, satellite_bound)
from coxsim.steinbound import _leggauss, _piecewise_gauss, _refine

UNIT_DISK = Disk((0.0, 0.0), 1.0)

# windows away from the origin-centred disk, each with the origin inside
OTHER_WINDOWS = {
    "offset_disk": Disk((0.5, 0.0), 1.0),
    "small_offset_disk": Disk((0.4, 0.0), 0.6),
    "centered_square": Rect(-0.5, -0.5, 0.5, 0.5),
    "offset_rect": Rect(-0.4, -0.3, 0.5, 0.6),
}

# G on each of OTHER_WINDOWS as a midpoint rule gave it (64 to 128 nodes per
# axis, node-doubling), with the tolerance that rule was run to
MIDPOINT_VALUES = {
    "offset_disk": (5.333331133553201, 1e-3),
    "small_offset_disk": (1.1519991560112304, 1e-4),
    "centered_square": (0.9463889464934883, 5e-4),
    "offset_rect": (0.6898975266132157, 1e-3),
}

PLACEMENTS = ("inside", "boundary", "outside")


def _random_windows(kind, placement, count=11):
    """Seeded disks or rects of size 0.2 to 2 with the origin strictly
    inside, on the boundary, or outside."""
    rng = np.random.default_rng([PLACEMENTS.index(placement), int(kind == "rect")])
    windows = []
    for _ in range(count):
        if kind == "disk":
            radius = rng.uniform(0.2, 2.0)
            scale = {"inside": rng.uniform(0.0, 0.95), "boundary": 1.0,
                     "outside": rng.uniform(1.05, 3.0)}[placement]
            phi = rng.uniform(0.0, 2.0 * math.pi)
            windows.append(Disk((scale * radius * math.cos(phi),
                                 scale * radius * math.sin(phi)), radius))
            continue
        a, b = rng.uniform(0.2, 2.0, 2)
        x0, y0 = -rng.uniform(0.05, 0.95) * a, -rng.uniform(0.05, 0.95) * b
        if placement == "boundary":   # origin on an edge or at a corner
            x0 = rng.choice([0.0, -a])
            y0 = rng.choice([y0, 0.0, -b])
        elif placement == "outside":
            x0 += rng.choice([-1.0, 1.0]) * (a + rng.uniform(0.05, 3.0))
        windows.append(Rect(x0, y0, x0 + a, y0 + b))
    return windows


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
        assert abs(val - 16.0 / 3.0) < 1e-12
        assert err < 1e-12

    def test_cubic_scaling(self):
        v1, _ = chord_square_integral(Disk((0, 0), 1.0))
        v2, _ = chord_square_integral(Disk((0, 0), 2.0))
        assert v2 == pytest.approx(8.0 * v1, rel=1e-12)
        assert v2 == pytest.approx(16.0 * 8.0 / 3.0, rel=1e-12)

    def test_tiny_window_vanishes(self):
        val, _ = chord_square_integral(Disk((0, 0), 1e-4))
        assert val < 1e-10

    def test_rotation_invariance_offset_disk(self):
        # rotating the window about the origin leaves the integral unchanged
        v1, _ = chord_square_integral(Disk((0.4, 0.0), 0.6))
        for center in ((0.0, 0.4), (0.4 / math.sqrt(2), 0.4 / math.sqrt(2)), (-0.4, 0.0)):
            assert chord_square_integral(Disk(center, 0.6))[0] == pytest.approx(v1, rel=1e-12)

    def test_rotation_invariance_rect(self):
        # a quarter turn (x, y) -> (-y, x) maps a rect to a rect
        v1, _ = chord_square_integral(Rect(-0.4, -0.3, 0.5, 1.6))
        v2, _ = chord_square_integral(Rect(-1.6, -0.4, 0.3, 0.5))
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_monotone_nested_disks(self):
        vals = [chord_square_integral(Disk((0, 0), R))[0] for R in (0.5, 0.8, 1.0, 1.3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rect_window_converges(self):
        val, err = chord_square_integral(Rect(-0.5, -0.5, 0.5, 0.5))
        assert err <= 1e-12
        # sanity: bounded by the disk circumscribing the square
        upper, _ = chord_square_integral(Disk((0, 0), math.sqrt(0.5)))
        assert 0.0 < val < upper

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("kind", ["disk", "rect"])
    def test_random_windows_match_closed_form(self, kind, placement):
        for window in _random_windows(kind, placement):
            val, err = chord_square_integral(window)
            assert val == pytest.approx(window.closed_form_g(), rel=1e-12), window
            assert err <= 1e-8, window

    @pytest.mark.parametrize("height", [1e-4, 1e-3])
    def test_thin_rect_converged_or_refused(self, height):
        # G of a thin rect is far below 1, where the stop rule is relative, so
        # the quadrature reports G to 1e-6 relative or raises; an absolute
        # 1e-8 is 15% of G (6.6e-8) at height 1e-4
        window = Rect(0.0, 0.0, 1.0, height)
        try:
            val, _ = chord_square_integral(window)
        except QuadratureError:
            return
        assert val == pytest.approx(window.closed_form_g(), rel=1e-6)

    def test_non_convergent_reported(self):
        # Gauss-Legendre on int_0^1 x^-1/2 dx = 2 gains about one digit per
        # doubling, short of the tolerance after every allowed level
        def evaluate(level):
            x, w = _piecewise_gauss([0.0, 1.0], 16 * 2 ** level)
            return float(w @ x ** -0.5)

        with pytest.raises(QuadratureError):
            _refine(evaluate)

    @pytest.mark.parametrize("name", OTHER_WINDOWS.keys())
    def test_other_windows_use_midpoint(self, name):
        # the Gauss rule agrees with an independent midpoint rule's values
        # to that rule's tolerance, and converges far tighter itself
        expected, midpoint_tol = MIDPOINT_VALUES[name]
        val, err = chord_square_integral(OTHER_WINDOWS[name])
        assert val == pytest.approx(expected, abs=midpoint_tol)
        assert err <= 1e-12

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.7])
    def test_origin_disk_is_exact(self, radius):
        # one angular piece with a constant integrand, and one radial piece
        # 4 R^3 cos^3(v) that Gauss-Legendre integrates to rounding
        val, err = chord_square_integral(Disk((0.0, 0.0), radius))
        assert val == pytest.approx(16.0 * radius ** 3 / 3.0, rel=1e-12)
        assert err < 1e-12 * val


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

    @pytest.mark.parametrize("window", OTHER_WINDOWS.values(), ids=OTHER_WINDOWS.keys())
    def test_closed_form_matches_quadrature(self, window):
        # closed form for off-centre disks and rects, against the
        # independent chord-square quadrature (c = lambda = 1 gives G)
        bound = cox_bound(ModelParams.planar(1.0, 1.0), window)
        val, err = chord_square_integral(window)
        assert val == pytest.approx(bound, rel=1e-12)
        assert err <= 1e-12

    def test_unit_square_closed_form(self):
        # [(2/3)(2 - 2^1.5) + 4 asinh(1)] / pi
        bound = cox_bound(ModelParams.planar(1.0, 10.0), Rect(0, 0, 1, 1))
        assert bound == pytest.approx(0.0946402009, abs=1e-10)
        # motion invariance: translating the window leaves G unchanged
        moved = cox_bound(ModelParams.planar(1.0, 10.0), Rect(3, -2, 4, -1))
        assert moved == pytest.approx(bound, rel=1e-14)

    @pytest.mark.parametrize("log_aspect", range(13))
    def test_thin_rect_closed_form(self, log_aspect):
        # G of an a x b rect with b / a = 10^log_aspect against the same
        # formula at 60 digits, where a^3 + b^3 - (a^2 + b^2)^(3/2) keeps its
        # digits; the quadrature refuses such rects, so nothing else checks them
        a, b = 10.0 ** (-log_aspect / 2.0), 10.0 ** (log_aspect / 2.0)
        da, db = Decimal(a), Decimal(b)

        def asinh(x):
            return (x + (x * x + 1).sqrt()).ln()

        with localcontext() as ctx:
            ctx.prec = 60
            cubes = da ** 3 + db ** 3 - (da * da + db * db).sqrt() ** 3
            expected = float(Decimal(2) / 3 * cubes + 2 * da * db
                             * (da * asinh(db / da) + db * asinh(da / db))) / math.pi
        for rect in (Rect(0.0, 0.0, a, b), Rect(0.0, 0.0, b, a)):
            assert rect.closed_form_g() == pytest.approx(expected, rel=1e-13)

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
        res = coarea_check(Rect(0, 0, 1, 1), 0.0)
        assert abs(res.ratio - 1.0) < 1e-12
        assert res.lhs == pytest.approx(1.0, abs=1e-12)

    def test_origin_disk_half(self):
        # only the half-disk {x >= 0} is swept by r >= 0: ratio 1/2
        res = coarea_check(UNIT_DISK, 0.0)
        assert abs(res.ratio - 0.5) < 1e-12
        assert res.lhs == pytest.approx(math.pi, abs=1e-12)
        assert res.rhs == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_translated_square(self):
        res = coarea_check(Rect(3.0, -0.5, 4.0, 0.5), 0.0)
        assert abs(res.ratio - 1.0) < 1e-12

    def test_translated_disk(self):
        # window fully in the positive half-plane: ratio 1
        res = coarea_check(Disk((3.0, 0.0), 0.7), 0.0)
        assert abs(res.ratio - 1.0) < 1e-12

    def test_other_theta(self):
        # same half-plane geometry at theta = pi/2 for a window above y = 0
        res = coarea_check(Rect(-0.5, 0.2, 0.5, 1.2), math.pi / 2.0)
        assert abs(res.ratio - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0])
    def test_off_axis_rect_xsq(self, theta):
        # rhs / lhs is the area of the part of the rect with
        # x cos(theta) + y sin(theta) >= 0 over the rect's area: clip the
        # polygon to that half-plane and take its shoelace area
        x0, y0, x1, y1 = 0.3, -1.2, 1.5, 0.4
        ct, st = math.cos(theta), math.sin(theta)

        def clipped(poly):
            out = []
            for p, q in zip(poly, poly[1:] + poly[:1]):
                up, uq = p[0] * ct + p[1] * st, q[0] * ct + q[1] * st
                if up >= 0.0:
                    out.append(p)
                if (up >= 0.0) != (uq >= 0.0):
                    t = up / (up - uq)
                    out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            return out

        def area(poly):   # counter-clockwise vertices
            return sum(xa * yb - xb * ya
                       for (xa, ya), (xb, yb) in zip(poly, poly[1:] + poly[:1])) / 2.0

        rect = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        expected = area(clipped(rect)) / area(rect)
        res = coarea_check(Rect(x0, y0, x1, y1), theta)
        assert res.ratio == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert res.error_estimate <= 1e-12
