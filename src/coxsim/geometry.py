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

import numpy as np

from .record import Record

ANTIPODE_TOL = 1e-12   # switch to the fixed antipodal convention below this


# ---------------------------------------------------------------------------
# Windows and planar regions
# ---------------------------------------------------------------------------

class Disk(Record):
    """Closed disk; usable both as an observation window and a count region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))   # hashable: a cache key
        if not (self.radius > 0.0 and all(map(math.isfinite, (*self.center, self.radius)))
                and (self.radius > 1.0 or self.measure > 0.0)):   # radius ** 2 may underflow
            raise ValueError(f"disk needs a finite center, a positive radius and area: {self}")

    @property
    def measure(self) -> float:
        return math.pi * self.radius ** 2

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = pts - np.asarray(self.center)
        return d[:, 0] ** 2 + d[:, 1] ** 2 <= self.radius ** 2

    def describe(self) -> str:
        return f"disk(c=({self.center[0]:g},{self.center[1]:g}),R={self.radius:g})"

    def uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. uniform points (a binomial point process), by inverse
        transform, coordinate-major: each coordinate is filled in place."""
        rho = self.radius * np.sqrt(rng.random(n))
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        rows = np.empty((2, n))
        np.cos(ang, out=rows[0])
        np.sin(ang, out=rows[1])
        rows *= rho
        rows += np.reshape(self.center, (2, 1))
        return rows.T

    def chord(self, r: np.ndarray, theta: np.ndarray):
        cx, cy = self.center
        ct, st = np.cos(theta), np.sin(theta)
        h = r - (cx * ct + cy * st)
        ok = np.abs(h) < self.radius
        half = np.zeros_like(h)
        half[ok] = np.sqrt(self.radius ** 2 - h[ok] ** 2)
        s_c = cy * ct - cx * st
        return s_c - half, s_c + half

    def halves(self) -> tuple[Rect, Rect]:
        """Halves of the inscribed square, so both lie inside the disk and
        region areas stay exact for the Mecke oracles."""
        cx, cy = self.center
        r = self.radius / math.sqrt(2.0)
        return (Rect(cx - r, cy - r, cx, cy + r), Rect(cx, cy - r, cx + r, cy + r))

    def grid_frame(self) -> tuple:
        """(x0, y0, side, rho): the corner and side of the square that the
        region grid tiles, here the inscribed one, and the annuli's radius."""
        half = self.radius / math.sqrt(2.0)
        return self.center[0] - half, self.center[1] - half, 2.0 * half, self.radius

    def radial_pieces(self, theta: np.ndarray):
        """Edges of the chords' smooth pieces in r >= 0 at angles theta (last
        axis of length 1), in a variable v, and the map taking Gauss nodes and
        weights in v to r: r = cu + R sin(v), so the chord is 2 R cos(v)
        between the tangency radii; the r >= 0 clip moves the lower end only."""
        R = self.radius
        cu = self.center[0] * np.cos(theta) + self.center[1] * np.sin(theta)
        v_lo = np.arcsin(np.clip(-cu / R, -1.0, 1.0))
        edges = np.concatenate([v_lo, np.full_like(v_lo, 0.5 * math.pi)], axis=-1)
        return edges, lambda v, wv: (cu + R * np.sin(v), wv * R * np.cos(v))

    def angular_breaks(self) -> list:
        """Angles, modulo 2 pi, where a tangency radius cu -+ R crosses 0."""
        (cx, cy), R = self.center, self.radius
        dist = math.hypot(cx, cy)
        return [] if dist < R else [
            math.atan2(cy, cx) + k * math.pi + s * math.acos(R / dist)
            for k in (0, 1) for s in (-1, 1)]

    def closed_form_g(self) -> float:
        """G(K) in closed form.  G is motion-invariant and, by Crofton's
        chord-power formula, equals (1/pi) int int_{K x K} |x - y|^-1 dx dy
        (Santalo, Integral Geometry and Geometric Probability, 1976)."""
        return 16.0 * self.radius ** 3 / 3.0


class Rect(Record):
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1 and self.measure > 0.0
                and all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1)))):
            raise ValueError("rectangle requires finite x0 < x1 and y0 < y1 and a positive area")

    @property
    def measure(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def center(self) -> tuple[float, float]:
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return ((pts[:, 0] >= self.x0) & (pts[:, 0] <= self.x1)
                & (pts[:, 1] >= self.y0) & (pts[:, 1] <= self.y1))

    def describe(self) -> str:
        return f"rect({self.x0:g},{self.y0:g},{self.x1:g},{self.y1:g})"

    def uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. uniform points, coordinate-major: each coordinate is drawn
        in place as lo + (hi - lo) u, which is rng.uniform(lo, hi) bit for bit."""
        rows = np.empty((2, n))
        for row, lo, hi in ((rows[0], self.x0, self.x1), (rows[1], self.y0, self.y1)):
            rng.random(out=row)
            row *= hi - lo
            row += lo
        return rows.T

    def chord(self, r: np.ndarray, theta: np.ndarray):
        ct, st = np.cos(theta), np.sin(theta)
        shape = np.broadcast(r, theta).shape
        base_x, base_y = r * ct, r * st
        lo = np.full(shape, -np.inf)
        hi = np.full(shape, np.inf)
        ok = np.ones(shape, dtype=bool)
        for coef, base, b0, b1 in ((-st, base_x, self.x0, self.x1),
                                   (ct, base_y, self.y0, self.y1)):
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
        return np.where(ok, lo, 0.0), np.where(ok, hi, 0.0)

    def halves(self) -> tuple[Rect, Rect]:
        """Left and right halves, split at the center's x."""
        mx = 0.5 * (self.x0 + self.x1)
        return (Rect(self.x0, self.y0, mx, self.y1), Rect(mx, self.y0, self.x1, self.y1))

    def grid_frame(self) -> tuple:
        side = min(self.x1 - self.x0, self.y1 - self.y0)
        return self.x0, self.y0, side, side / 2.0

    def radial_pieces(self, theta: np.ndarray):
        # the chord is linear in r between the sorted corner projections
        ct, st = np.cos(theta), np.sin(theta)
        proj = np.concatenate([x * ct + y * st for x in (self.x0, self.x1)
                               for y in (self.y0, self.y1)], axis=-1)
        return np.sort(np.maximum(0.0, proj), axis=-1), lambda r, w: (r, w)

    def angular_breaks(self) -> list:
        """Angles, modulo 2 pi, where a corner's projection crosses 0 (theta
        normal to the corner) or two corners' projections tie (theta normal
        to their difference)."""
        a, b = self.x1 - self.x0, self.y1 - self.y0
        vectors = [(x, y) for x in (self.x0, self.x1) for y in (self.y0, self.y1)]
        vectors += [(a, 0.0), (0.0, b), (a, b), (a, -b)]
        return [math.atan2(y, x) + k * math.pi / 2.0 for x, y in vectors for k in (1, 3)]

    def closed_form_g(self) -> float:
        """G(K) in closed form, as in Disk.closed_form_g.  With a <= b and h =
        hypot(a, b), b^3 - h^3 = -a^2 (h^2 + h b + b^2) / (h + b) keeps thin rects' digits."""
        a, b = sorted((self.x1 - self.x0, self.y1 - self.y0))
        h = math.hypot(a, b)
        return ((2.0 / 3.0) * (a ** 3 - a * a * (h * h + h * b + b * b) / (h + b))
                + 2.0 * a * b * (a * math.asinh(b / a) + b * math.asinh(a / b))) / math.pi


Window = Disk | Rect

# window kind -> its constructor, as 'kind:v1,v2,...' gives the values
WINDOW_KINDS = {"disk": lambda cx, cy, radius: Disk((cx, cy), radius), "rect": Rect}


class Annulus(Record):
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
    """Vectorized chord intervals (s_lo, s_hi) for broadcastable arrays of
    (r, theta); s_hi - s_lo is 0 where the line misses the window.  The
    quadrature passes r of shape (m, k) with theta (m, 1)."""
    return window.chord(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))


# ---------------------------------------------------------------------------
# Sphere geometry
# ---------------------------------------------------------------------------

def orbit_frame(xs: np.ndarray):
    """Orthonormal frame (u, w) of the planes orthogonal to unit vectors xs.

    For xs of shape (n, 3) returns two coordinate-major (n, 3) arrays with
    u = R e1, w = R e2 where R is the minimal rotation taking e3 to x, about
    the axis e3 x x; the orbit of x is cos(phi) u + sin(phi) w.  Rows with x
    essentially antipodal to e3 use the fixed pi-rotation convention u = e1,
    w = -e2.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
    denom = 1.0 + x3
    safe = denom > ANTIPODE_TOL
    d = np.where(safe, denom, 1.0)
    u = np.stack([1.0 - x1 ** 2 / d, -x1 * x2 / d, -x1]).T
    w = np.stack([-x1 * x2 / d, 1.0 - x2 ** 2 / d, -x2]).T
    u[~safe] = (1.0, 0.0, 0.0)
    w[~safe] = (0.0, -1.0, 0.0)
    return u, w


class LatitudeBand(Record):
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
