import math

import numpy as np
import pytest

from coxsim.geometry import Annulus, Disk, LatitudeBand, Rect, chord_intervals
from oracles import (LineParams, chord_interval, chord_length, line_point,
                     orbit_point, rotation_to, support_radius)

RNG = np.random.default_rng(1234)


def random_line(rng, r_max=2.0):
    return LineParams(r_max * rng.random(), 2.0 * math.pi * rng.random())


class TestLinePoint:
    def test_origin_line_through_origin(self):
        assert np.allclose(line_point(LineParams(0.0, 0.0), 0.0), [0.0, 0.0])

    def test_foot_of_perpendicular(self):
        assert np.allclose(line_point(LineParams(1.0, 0.0), 0.0), [1.0, 0.0])

    def test_quarter_turn(self):
        # (r=2, theta=pi/2, s=3): substitution gives (-3, 2)
        p = line_point(LineParams(2.0, math.pi / 2.0), 3.0)
        assert np.allclose(p, [-3.0, 2.0], atol=1e-12)

    def test_postconditions_random(self):
        for _ in range(200):
            line = random_line(RNG)
            s = 4.0 * (RNG.random() - 0.5)
            p = line_point(line, s)
            ct, st = math.cos(line.theta), math.sin(line.theta)
            # p lies on the line: normal coordinate equals r
            assert abs(p[0] * ct + p[1] * st - line.r) < 1e-12 * max(1.0, line.r)
            foot = line_point(line, 0.0)
            assert abs(np.hypot(*(p - foot)) - abs(s)) < 1e-12

    def test_vectorized(self):
        line = random_line(RNG)
        s = np.linspace(-2, 2, 9)
        pts = line_point(line, s)
        assert pts.shape == (9, 2)
        for si, pi in zip(s, pts):
            assert np.allclose(pi, line_point(line, float(si)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LineParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            LineParams(1.0, 7.0)


class TestChords:
    def test_disk_diameter(self):
        for theta in (0.0, 1.0, 3.0):
            iv = chord_interval(Disk((0, 0), 1.0), LineParams(0.0, theta))
            assert iv == pytest.approx((-1.0, 1.0))

    def test_disk_half_chord(self):
        iv = chord_interval(Disk((0, 0), 1.0), LineParams(0.6, 0.0))
        assert iv == pytest.approx((-0.8, 0.8))

    def test_disk_miss(self):
        assert chord_interval(Disk((0, 0), 1.0), LineParams(1.5, 0.0)) is None
        assert chord_length(Disk((0, 0), 1.0), LineParams(1.5, 0.0)) == 0.0

    def test_disk_radius_two(self):
        assert chord_length(Disk((0, 0), 2.0), LineParams(0.0, 0.3)) == pytest.approx(4.0)

    def test_rect_vertical_line(self):
        # theta=0, r=0.5: the line x=0.5 clipped to the unit square
        assert chord_length(Rect(0, 0, 1, 1), LineParams(0.5, 0.0)) == pytest.approx(1.0)

    def test_rect_horizontal_line(self):
        assert chord_length(Rect(0, 0, 1, 1),
                            LineParams(0.5, math.pi / 2.0)) == pytest.approx(1.0)

    def test_rect_miss(self):
        assert chord_interval(Rect(0, 0, 1, 1), LineParams(3.0, 0.0)) is None

    def test_disk_formula_any_theta(self):
        # 2*sqrt(R^2 - r^2), independent of theta
        R = 1.3
        for _ in range(100):
            r = 1.5 * RNG.random()
            theta = 2.0 * math.pi * RNG.random()
            expect = 2.0 * math.sqrt(R * R - r * r) if r < R else 0.0
            got = chord_length(Disk((0, 0), R), LineParams(r, theta))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_membership_matches_interval(self):
        windows = [Disk((0.2, -0.1), 0.8), Rect(-0.5, -0.2, 0.7, 0.9)]
        for window in windows:
            for _ in range(100):
                line = random_line(RNG, r_max=1.5)
                iv = chord_interval(window, line)
                if iv is None:
                    continue
                lo, hi = iv
                inside = line_point(line, 0.5 * (lo + hi))
                assert window.contains(inside.reshape(1, 2))[0]
                out1 = line_point(line, lo - 0.05)
                out2 = line_point(line, hi + 0.05)
                assert not window.contains(out1.reshape(1, 2))[0]
                assert not window.contains(out2.reshape(1, 2))[0]

    def test_vectorized_matches_scalar(self):
        for window in (Disk((0.3, 0.1), 0.9), Rect(-1, 0, 1, 2)):
            r = 2.0 * RNG.random(50)
            theta = 2.0 * math.pi * RNG.random(50)
            s_lo, s_hi = chord_intervals(window, r, theta)
            vec = s_hi - s_lo
            for k in range(50):
                assert vec[k] == pytest.approx(
                    chord_length(window, LineParams(r[k], theta[k])), abs=1e-12)

    def test_grid_broadcast_matches_flat(self):
        # the quadrature passes an (n, 1) x (1, m) grid; entries must match
        # the flat call on the same (r, theta) pairs, bit for bit
        r = np.linspace(0.0, 1.6, 7)
        theta = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
        rr, tt = np.broadcast_arrays(r[:, None], theta[None, :])
        for window in (Disk((0.3, 0.1), 0.9), Rect(-1, 0, 1, 2)):
            grid = chord_intervals(window, r[:, None], theta[None, :])
            flat = chord_intervals(window, rr.ravel(), tt.ravel())
            for g, f in zip(grid, flat):
                assert g.shape == (7, 9)
                assert np.array_equal(g.ravel(), f)


class TestHalves:
    def test_rect_halves_tile(self):
        left, right = Rect(-1.0, 0.5, 3.0, 2.0).halves()
        assert left == Rect(-1.0, 0.5, 1.0, 2.0)
        assert right == Rect(1.0, 0.5, 3.0, 2.0)

    def test_disk_halves_inside(self):
        disk = Disk((0.4, -0.3), 1.5)
        for half in disk.halves():
            corners = np.array([(x, y) for x in (half.x0, half.x1)
                                for y in (half.y0, half.y1)])
            # the outer corners lie on the circle, up to rounding
            dist = np.hypot(*(corners - np.array(disk.center)).T)
            assert dist.max() <= disk.radius * (1.0 + 1e-12)
            assert half.area == pytest.approx(disk.radius ** 2)


class TestSupportRadius:
    def test_disk_at_origin(self):
        assert support_radius(Disk((0, 0), 2.5)) == pytest.approx(2.5)

    def test_unit_square(self):
        assert support_radius(Rect(0, 0, 1, 1)) == pytest.approx(math.sqrt(2.0))

    def test_offset_disk(self):
        assert support_radius(Disk((3, 0), 1.0)) == pytest.approx(4.0)

    def test_larger_r_misses(self):
        for window in (Disk((0.5, 0.2), 1.1), Rect(-0.3, 0.1, 0.8, 1.4)):
            rs = support_radius(window)
            for _ in range(50):
                line = LineParams(rs + 0.01 + RNG.random(),
                                  2.0 * math.pi * RNG.random())
                assert chord_interval(window, line) is None


class TestRotations:
    def test_north_pole_identity(self):
        assert np.allclose(rotation_to(np.array([0.0, 0.0, 1.0])), np.eye(3))

    def test_antipode_convention(self):
        # rotation by pi about the first axis
        R = rotation_to(np.array([0.0, 0.0, -1.0]))
        assert np.allclose(R, np.diag([1.0, -1.0, -1.0]))

    def test_equator_point(self):
        R = rotation_to(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(R @ np.array([0, 0, 1.0]), [1, 0, 0], atol=1e-12)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_random_postconditions(self):
        for _ in range(200):
            x = RNG.standard_normal(3)
            x /= np.linalg.norm(x)
            R = rotation_to(x)
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(R @ [0, 0, 1], x, atol=1e-12)
            v = RNG.standard_normal(3)
            assert np.linalg.norm(R @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            rotation_to(np.array([0.0, 0.0, 1.1]))
        with pytest.raises(ValueError):
            rotation_to(np.array([1e-8, 0.0, 1.0 + 1e-7]))


class TestOrbitPoint:
    def test_north_pole_start(self):
        assert np.allclose(orbit_point(np.array([0, 0, 1.0]), 0.0), [1, 0, 0])

    def test_orthogonality_random(self):
        for _ in range(200):
            x = RNG.standard_normal(3)
            x /= np.linalg.norm(x)
            phi = 2.0 * math.pi * RNG.random()
            p = orbit_point(x, phi)
            assert abs(p @ x) < 1e-9
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_closed_curve(self):
        x = np.array([0.6, 0.0, 0.8])
        for phi in (0.0, 1.0, 2.5):
            assert np.allclose(orbit_point(x, phi),
                               orbit_point(x, phi + 2.0 * math.pi), atol=1e-12)

    def test_matches_rotation(self):
        x = np.array([0.6, 0.48, 0.64])
        x /= np.linalg.norm(x)
        R = rotation_to(x)
        phi = 1.234
        expect = R @ np.array([math.cos(phi), math.sin(phi), 0.0])
        assert np.allclose(orbit_point(x, phi), expect, atol=1e-12)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 0.0])
        phis = np.linspace(0, 2 * math.pi, 7)
        pts = orbit_point(x, phis)
        assert pts.shape == (7, 3)
        assert np.abs(pts @ x).max() < 1e-9


class TestRegions:
    def test_annulus(self):
        ann = Annulus((0, 0), 0.5, 1.0)
        pts = np.array([[0.7, 0.0], [0.3, 0.0], [1.2, 0.0], [0.0, -0.9]])
        assert ann.contains(pts).tolist() == [True, False, False, True]
        assert ann.measure == pytest.approx(math.pi * 0.75)

    def test_polar_bands(self):
        # a polar cap is a band with a closed end at a pole
        north, south = LatitudeBand(0.5, 1.0), LatitudeBand(-1.0, -0.5)
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0], [1, 0, 0.0],
                        [0, math.sqrt(0.75), 0.5], [0, math.sqrt(0.75), -0.5]])
        assert north.contains(pts).tolist() == [True, False, False, True, False]
        assert south.contains(pts).tolist() == [False, True, False, False, True]
        assert north.measure == south.measure == 0.25
        assert LatitudeBand(-1.0, 1.0).contains(pts).all()

    def test_band(self):
        band = LatitudeBand(-1.0 / 3.0, 1.0 / 3.0)
        assert band.measure == pytest.approx(1.0 / 3.0)
        pts = np.array([[0, 0, 0.2], [0, 0, 0.9]])
        assert band.contains(pts).tolist() == [True, False]

    def test_window_areas(self):
        assert Disk((1, 2), 2.0).area == pytest.approx(4 * math.pi)
        assert Rect(0, 0, 2, 3).area == pytest.approx(6.0)
        with pytest.raises(ValueError):
            Disk((0, 0), 0.0)
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        # a positive radius or side whose area underflows to 0 is no window; a
        # subnormal area is positive, and an overflowing one is left to the
        # bound's float-range check
        with pytest.raises(ValueError, match="positive radius and area"):
            Disk((0, 0), 1e-200)
        with pytest.raises(ValueError, match="positive area"):
            Rect(0, 0, 1e-200, 1e-200)
        assert Disk((0, 0), 1e-160).area > 0.0 and Rect(0, 0, 1e-200, 1e-120).area > 0.0
        assert Disk((0, 0), 1e200).radius == 1e200
