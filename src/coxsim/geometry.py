"""Planar line geometry and spherical orbit geometry.

Lines in the plane are parametrized by (r, theta): r is the perpendicular
distance from the origin, theta the angle of the foot of the perpendicular,
so the line is {(x, y) : x cos(theta) + y sin(theta) = r}.  Points on a line
carry an arc-length coordinate s measured from the foot point:

    p(s) = (r cos(theta) - s sin(theta), r sin(theta) + s cos(theta))

On the unit sphere, the orbit of a base point x is the great circle in the
plane orthogonal to x, parametrized by the image of the unit circle under the
minimal rotation taking the north pole e3 to x (see orbit_frame).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ANTIPODE_TOL = 1e-12   # switch to the fixed antipodal convention below this


# ---------------------------------------------------------------------------
# Windows and planar regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    """Closed disk; usable both as an observation window and a count region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))   # hashable: a cache key
        if not (self.radius > 0.0 and all(map(math.isfinite, (*self.center, self.radius)))):
            raise ValueError(f"disk needs a finite center and a positive radius, got {self}")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2

    measure = area

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = pts - np.asarray(self.center)
        return d[:, 0] ** 2 + d[:, 1] ** 2 <= self.radius ** 2

    def describe(self) -> str:
        return f"disk(c=({self.center[0]:g},{self.center[1]:g}),R={self.radius:g})"


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1
                and all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1)))):
            raise ValueError("rectangle requires finite x0 < x1 and y0 < y1")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def center(self) -> tuple[float, float]:
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)

    measure = area

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return ((pts[:, 0] >= self.x0) & (pts[:, 0] <= self.x1)
                & (pts[:, 1] >= self.y0) & (pts[:, 1] <= self.y1))

    def describe(self) -> str:
        return f"rect({self.x0:g},{self.y0:g},{self.x1:g},{self.y1:g})"


Window = Disk | Rect


@dataclass(frozen=True)
class Annulus:
    """Closed annulus r_inner <= |p - center| <= r_outer (r_inner = 0 gives a disk)."""

    center: tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))   # hashable: a cache key
        if not (0.0 <= self.r_inner < self.r_outer):
            raise ValueError("annulus requires 0 <= r_inner < r_outer")

    @property
    def measure(self) -> float:
        return math.pi * (self.r_outer ** 2 - self.r_inner ** 2)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = pts - np.asarray(self.center)
        rho2 = d[:, 0] ** 2 + d[:, 1] ** 2
        return (rho2 >= self.r_inner ** 2) & (rho2 <= self.r_outer ** 2)

    def describe(self) -> str:
        return f"annulus({self.r_inner:g},{self.r_outer:g})"


def chord_intervals(window: Window, r, theta):
    """Vectorized chord intervals for broadcastable arrays of (r, theta).

    Returns (s_lo, s_hi, nonempty mask); s_hi - s_lo is 0 where the line
    misses the window.  The quadrature passes r of shape (m, k) with theta (m, 1).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    if isinstance(window, Disk):
        cx, cy = window.center
        h = r - (cx * ct + cy * st)
        ok = np.abs(h) < window.radius
        half = np.zeros_like(h)
        half[ok] = np.sqrt(window.radius ** 2 - h[ok] ** 2)
        s_c = cy * ct - cx * st
        return s_c - half, s_c + half, ok
    shape = np.broadcast(r, theta).shape
    base_x, base_y = r * ct, r * st
    lo = np.full(shape, -np.inf)
    hi = np.full(shape, np.inf)
    ok = np.ones(shape, dtype=bool)
    for coef, base, b0, b1 in ((-st, base_x, window.x0, window.x1),
                               (ct, base_y, window.y0, window.y1)):
        deg = np.abs(coef) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = np.where(deg, -np.inf, (b0 - base) / np.where(deg, 1.0, coef))
            t1 = np.where(deg, np.inf, (b1 - base) / np.where(deg, 1.0, coef))
        swap = t0 > t1
        t0, t1 = np.where(swap, t1, t0), np.where(swap, t0, t1)
        lo, hi = np.maximum(lo, t0), np.minimum(hi, t1)
        # degenerate direction: the fixed coordinate must be inside the slab
        ok &= ~(deg & ((base < b0) | (base > b1)))
    ok &= (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
    return np.where(ok, lo, 0.0), np.where(ok, hi, 0.0), ok


def halves(window: Window) -> tuple[Rect, Rect]:
    """Left and right halves of the window, split at the center's x.

    A disk is halved through its inscribed square, so both halves lie inside
    the disk and region areas stay exact for the Mecke oracles.
    """
    if isinstance(window, Rect):
        mx = 0.5 * (window.x0 + window.x1)
        return (Rect(window.x0, window.y0, mx, window.y1),
                Rect(mx, window.y0, window.x1, window.y1))
    cx, cy = window.center
    r = window.radius / math.sqrt(2.0)
    return (Rect(cx - r, cy - r, cx, cy + r), Rect(cx, cy - r, cx + r, cy + r))


# ---------------------------------------------------------------------------
# Sphere geometry
# ---------------------------------------------------------------------------

def orbit_frame(xs: np.ndarray):
    """Orthonormal frame (u, w) of the planes orthogonal to unit vectors xs.

    For xs of shape (n, 3) returns two (n, 3) arrays with u = R e1, w = R e2
    where R is the minimal rotation taking e3 to x, about the axis e3 x x; the
    orbit of x is cos(phi) u + sin(phi) w.  Rows with x essentially antipodal
    to e3 use the fixed pi-rotation convention u = e1, w = -e2.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
    denom = 1.0 + x3
    safe = denom > ANTIPODE_TOL
    d = np.where(safe, denom, 1.0)
    u = np.stack([1.0 - x1 ** 2 / d, -x1 * x2 / d, -x1], axis=1)
    w = np.stack([-x1 * x2 / d, 1.0 - x2 ** 2 / d, -x2], axis=1)
    u[~safe] = (1.0, 0.0, 0.0)
    w[~safe] = (0.0, -1.0, 0.0)
    return u, w


@dataclass(frozen=True)
class SphericalCap:
    """Cap {p : p . axis >= height} on the unit sphere; measure is the
    normalized surface fraction."""

    axis: tuple[float, float, float]
    height: float

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(self.axis))   # hashable: a cache key
        if not (-1.0 < self.height < 1.0):
            raise ValueError("cap height must lie in (-1, 1)")
        a = np.asarray(self.axis, dtype=float)
        if abs(a @ a - 1.0) > 1e-6:
            raise ValueError("cap axis must be a unit vector")

    @property
    def measure(self) -> float:
        return (1.0 - self.height) / 2.0

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return pts @ np.asarray(self.axis) >= self.height

    def describe(self) -> str:
        a = self.axis
        return f"cap(axis=({a[0]:g},{a[1]:g},{a[2]:g}),h={self.height:g})"


@dataclass(frozen=True)
class LatitudeBand:
    """Band {p : z_lo <= p_z <= z_hi} on the unit sphere."""

    z_lo: float
    z_hi: float

    def __post_init__(self):
        if not (-1.0 <= self.z_lo < self.z_hi <= 1.0):
            raise ValueError("band requires -1 <= z_lo < z_hi <= 1")

    @property
    def measure(self) -> float:
        return (self.z_hi - self.z_lo) / 2.0

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (pts[:, 2] >= self.z_lo) & (pts[:, 2] <= self.z_hi)

    def describe(self) -> str:
        return f"band({self.z_lo:g},{self.z_hi:g})"
