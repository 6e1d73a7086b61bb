"""Reference implementations the tests compare the package against.

Point-set helpers: a point set is an (n, 2) array in the plane or an (n, 3)
array on the unit sphere, and these build, split, extend and count them one
replicate at a time; cap_counts counts by the rule of a spherical cap.

Uniform draws: the window and sphere samplers as row-major formulas, on the
same draws as the coordinate-major samplers that fill coordinates in place.

Point moves: Functional.moved, the Mecke point sums and the Glauber
generator by the per-point formula, which evaluates h once per point, as
references for the pattern-grouped kernels.

Scalar geometry: one line or one orbit point at a time, written for clarity
rather than speed, as oracles for the vectorized kernels in coxsim.geometry.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from coxsim.geometry import Disk, Window, chord_intervals, orbit_frame
from coxsim.glauber import BIRTH_PAIRS
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


# the polar caps of coxsim.diagnostics.sphere_region_set as (axis, height),
# each the cap {p : p . axis >= height} about a pole
POLAR_CAPS = {"cap_n05": ((0.0, 0.0, 1.0), 0.5), "cap_n08": ((0.0, 0.0, 1.0), 0.8),
              "cap_s05": ((0.0, 0.0, -1.0), 0.5), "cap_s08": ((0.0, 0.0, -1.0), 0.8)}


def cap_counts(b: ReplicateBatch, axis, height) -> np.ndarray:
    """Per-replicate counts of the points p with p . axis >= height, the rule
    of a spherical cap about any unit axis, one point at a time."""
    inside = [sum(pi * ai for pi, ai in zip(p, axis)) >= height for p in b.points.tolist()]
    return np.bincount(b.rep_ids, inside, len(b)).astype(np.int64)


# ---------------------------------------------------------------------------
# Uniform draws, row-major
# ---------------------------------------------------------------------------

def rect_uniform(rect, n: int, rng) -> np.ndarray:
    """Rect.uniform as two stacked rng.uniform columns."""
    return np.column_stack([rng.uniform(rect.x0, rect.x1, n), rng.uniform(rect.y0, rect.y1, n)])


def disk_uniform(disk, n: int, rng) -> np.ndarray:
    """Disk.uniform as stacked columns: the radii, then the angles."""
    rho = disk.radius * np.sqrt(rng.random(n))
    ang = rng.uniform(0.0, TAU, n)
    cx, cy = disk.center
    return np.column_stack([cx + rho * np.cos(ang), cy + rho * np.sin(ang)])


def uniform_sphere(rng, n: int) -> np.ndarray:
    """pointprocess.sample_uniform_sphere as normalized Gaussian rows."""
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Point moves, one point at a time
# ---------------------------------------------------------------------------

def membership_rows(regions, points: np.ndarray) -> np.ndarray:
    """(points x len(regions)) 0/1 int8 matrix: which regions hold each point,
    which are also the counts of the one-point configuration {x}."""
    rows = np.array([r.contains(points) for r in regions], dtype=np.int8)
    return rows.reshape(len(regions), len(points)).T


def point_values(F, batch: ReplicateBatch, points: ReplicateBatch, sign: int = 1):
    """Per point x of points, F of its replicate of batch with x added (sign
    1) or removed (sign -1): h of the replicate's counts plus sign times x's
    membership row, one row per point."""
    return F.h(F.counts(batch)[points.rep_ids] + sign * membership_rows(F.regions, points.points))


def moved_reference(F, batch: ReplicateBatch, points: ReplicateBatch, sign: int = 1,
                    g=None) -> np.ndarray:
    """Functional.moved by the per-point formula: per replicate, the sum over
    its points x of g({x}) * F(batch + sign x)."""
    values = point_values(F, batch, points, sign)
    if g is not None:
        values = values * g.h(membership_rows(g.regions, points.points))
    return np.bincount(points.rep_ids, values, len(batch))


def point_sums_reference(mfs, phi: ReplicateBatch) -> list:
    """The left sides of diagnostics.mecke_check_ppp and mecke_check_bpp, on
    their draw phi, by the per-point formula."""
    return [moved_reference(mf.h, phi, phi, -1, mf.g) for mf in mfs]


def generator_reference(functionals, omegas: ReplicateBatch, spec, rng) -> np.ndarray:
    """glauber.generator_apply by the per-point formula: each point's death
    difference and each birth's difference, then their bincount and mean,
    on the same draws."""
    reps, ids = len(omegas), omegas.rep_ids
    births = ReplicateBatch.bpp(spec.window, BIRTH_PAIRS, reps, rng)
    pairs = births.superpose(ReplicateBatch(
        2.0 * np.asarray(spec.window.center) - births.points, births.rep_ids, reps))
    values = []
    for F in functionals:
        f0 = F(omegas)
        death = np.bincount(ids, point_values(F, omegas, omegas, -1) - f0[ids], minlength=reps)
        born = (point_values(F, omegas, pairs) - f0[pairs.rep_ids]).reshape(2, reps, BIRTH_PAIRS)
        values.append(death + spec.birth_rate * (0.5 * (born[0] + born[1])).mean(axis=1))
    return np.column_stack(values)


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


def support_radius(window: Window) -> float:
    """max |p| over p in the window; lines with r beyond it miss the window."""
    if isinstance(window, Disk):
        cx, cy = window.center
        return math.hypot(cx, cy) + window.radius
    corners = [(window.x0, window.y0), (window.x0, window.y1),
               (window.x1, window.y0), (window.x1, window.y1)]
    return max(math.hypot(x, y) for x, y in corners)


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


def oracle_cox_line(params, window: Window, rng, r_max=None):
    """One cox-line replicate drawn directly: all Poisson(lambda_n * r_max)
    lines with r <= r_max, each carrying Poisson(mu_n * chord length) uniform
    points on its chord.  Returns (lines, points, marks): every drawn line,
    with or without points, and its point count.  r_max overrides the
    truncation radius (any value at least support_radius gives the same law
    for the clipped points)."""
    if r_max is None:
        r_max = support_radius(window)
    m = rng.poisson(params.lambda_n * r_max)
    r = rng.uniform(0.0, r_max, m)
    theta = rng.uniform(0.0, TAU, m)
    s_lo, s_hi = chord_intervals(window, r, theta)
    lengths = s_hi - s_lo
    marks = rng.poisson(params.mu_n * lengths)
    idx = np.repeat(np.arange(m), marks)
    s = s_lo[idx] + rng.random(idx.size) * lengths[idx]
    ct, st = np.cos(theta[idx]), np.sin(theta[idx])
    points = np.column_stack([r[idx] * ct - s * st, r[idx] * st + s * ct])
    return np.column_stack([r, theta]), points, marks


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
