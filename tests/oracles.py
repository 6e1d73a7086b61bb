"""Reference implementations the tests compare the package against.

Point-set helpers: a point set is an (n, 2) array in the plane or an (n, 3)
array on the unit sphere, and these build, split, extend and count them one
replicate at a time.

Scalar geometry: one line or one orbit point at a time, written for clarity
rather than speed, as oracles for the vectorized kernels in coxsim.geometry.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from coxsim.geometry import Disk, Window, orbit_frame
from coxsim.pointprocess import ReplicateBatch

TAU = 2.0 * math.pi

UNIT_TOL = 1e-9        # rejection tolerance for non-unit sphere points


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

def plane_points(rows) -> np.ndarray:
    """Rows of (x, y) as an (n, 2) float array; [] gives the empty set."""
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def sphere_points(rows) -> np.ndarray:
    """Rows of (x, y, z) as an (n, 3) float array; [] gives the empty set."""
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def batch(point_sets) -> ReplicateBatch:
    """The point arrays, in order, as the replicates of one batch."""
    return ReplicateBatch.stack(point_sets)


def replicate(b: ReplicateBatch, j: int) -> np.ndarray:
    """The points of replicate j, in batch order."""
    return b.points[b.rep_ids == j]


def split(b: ReplicateBatch) -> list:
    """Every replicate of a batch as its own point array."""
    return [replicate(b, j) for j in range(len(b))]


def plus(points: np.ndarray, x) -> np.ndarray:
    """The point set with the point x appended."""
    return np.vstack([points, np.reshape(x, (1, -1))])


def multiset(points) -> Counter:
    """A point set as a multiset, for order-free comparison."""
    return Counter(map(tuple, points))


def count_in(points: np.ndarray, region) -> int:
    """Number of points of one point set inside the region."""
    return int(region.contains(points).sum())


# ---------------------------------------------------------------------------
# Lines and chords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineParams:
    """A line D(r, theta): perpendicular distance r >= 0, angle theta in [0, 2*pi)."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be finite and nonnegative, got {self.r}")
        if not (0.0 <= self.theta < TAU):
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")


def line_point(line: LineParams, s):
    """Point(s) on the line at arc-length coordinate(s) s from the foot point.

    s may be a scalar (returns shape (2,)) or an array (returns shape (n, 2)).
    """
    ct, st = math.cos(line.theta), math.sin(line.theta)
    s = np.asarray(s, dtype=float)
    x = line.r * ct - s * st
    y = line.r * st + s * ct
    return np.stack([x, y], axis=-1)


def chord_interval(window: Window, line: LineParams):
    """Arc-length interval [s_lo, s_hi] of the window's chord on the line.

    Scalar reference for chord_intervals.  Returns None when the line misses
    the window or touches it in a single point (degenerate chords count as
    empty).
    """
    ct, st = math.cos(line.theta), math.sin(line.theta)
    if isinstance(window, Disk):
        cx, cy = window.center
        h = line.r - (cx * ct + cy * st)       # signed normal distance to center
        if abs(h) >= window.radius:
            return None
        half = math.sqrt(window.radius ** 2 - h * h)
        s_c = cy * ct - cx * st                # tangential coordinate of the center
        return (s_c - half, s_c + half)
    # Rectangle: clip x(s) = r*ct - s*st and y(s) = r*st + s*ct against the
    # four half-planes (Liang-Barsky).
    lo, hi = -math.inf, math.inf
    for coef, base, b0, b1 in ((-st, line.r * ct, window.x0, window.x1),
                               (ct, line.r * st, window.y0, window.y1)):
        if abs(coef) < 1e-300:
            if not (b0 <= base <= b1):
                return None
            continue
        t0, t1 = (b0 - base) / coef, (b1 - base) / coef
        if t0 > t1:
            t0, t1 = t1, t0
        lo, hi = max(lo, t0), min(hi, t1)
    if not (lo < hi) or math.isinf(lo) or math.isinf(hi):
        return None
    return (lo, hi)


def chord_length(window: Window, line: LineParams) -> float:
    iv = chord_interval(window, line)
    return 0.0 if iv is None else iv[1] - iv[0]


# ---------------------------------------------------------------------------
# Rotations and orbits
# ---------------------------------------------------------------------------

def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected a single 3-vector")
    if abs(x @ x - 1.0) > 2.0 * UNIT_TOL:
        raise ValueError(f"point must be on the unit sphere (|x|^2 = {x @ x})")
    return x


def rotation_to(x: np.ndarray) -> np.ndarray:
    """Rotation matrix R with R e3 = x, minimal geodesic choice.

    The rotation axis is e3 x x, so R is continuous in x away from the south
    pole; at x = -e3 the convention is the rotation by pi about e1.  Raises
    ValueError when |x| differs from 1 by more than the unit tolerance.
    """
    x = _check_unit(x)
    u, w = orbit_frame(x)
    return np.column_stack([u[0], w[0], x])


def orbit_point(x: np.ndarray, phi) -> np.ndarray:
    """Point rotation_to(x) @ (cos phi, sin phi, 0) on the orbit of x.

    phi may be scalar (returns (3,)) or an array (returns (n, 3)).
    """
    x = _check_unit(x)
    u, w = orbit_frame(x)
    phi = np.asarray(phi, dtype=float)
    pts = (np.cos(phi)[..., None] * u[0] + np.sin(phi)[..., None] * w[0])
    return pts if pts.ndim > 1 else pts.reshape(3)
