"""Numeric evaluation of the explicit convergence bounds and the coarea identity.

The planar bound is (c^2 / lambda_n) * G(K) with geometric constant

    G(K) = int_0^{2pi} int_0^{r_max} chord_length(K, (r, theta))^2 dr dtheta / pi.

The bound uses the closed forms G = 16 R^3 / 3 for every disk and, for an
a x b rectangle,

    G = [(2/3)(a^3 + b^3 - (a^2 + b^2)^(3/2))
         + 2ab (a asinh(b/a) + b asinh(a/b))] / pi;

the quadrature chord_square_integral is their independent cross-check.  Its
radial rule follows the window: Gauss-Legendre on an origin-centred disk,
where the chord square 4 (R^2 - r^2) is a polynomial in r, and the midpoint
rule elsewhere.  The spherical bound is 2 c^2 / n with no quadrature at all.

The coarea check evaluates both sides of the identity

    int_A f dx  vs  int_{r >= 0} ( int_{A ∩ D(r, theta)} f ds ) dr

at fixed theta and reports their ratio: the identity holds with ratio 1 only
when A lies in the half-plane {x cos(theta) + y sin(theta) >= 0}; for the
origin-centered disk the r >= 0 family sweeps exactly half of A and the
ratio is 1/2.  The check reports ratios rather than asserting equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Disk, Window, chord_intervals, support_radius
from .pointprocess import ModelParams


class QuadratureError(RuntimeError):
    """Raised when node-doubling fails to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor quadrature controls.

    The reported error estimate is the change under one node-doubling; levels
    are doubled until it falls below tol or max_levels is exhausted.
    """

    radial_nodes: int = 64
    angular_nodes: int = 64
    tol: float = 1e-8
    max_levels: int = 6

    def __post_init__(self):
        if self.radial_nodes < 8 or self.angular_nodes < 8:
            raise ValueError("node counts must be at least 8")
        if self.max_levels < 1 or self.tol <= 0:
            raise ValueError("need max_levels >= 1 and tol > 0")


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; cached, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(n: int, a: float, b: float):
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _midpoint(n: int, a: float, b: float):
    """n-point midpoint nodes and weights on [a, b]."""
    h = (b - a) / n
    return a + h * (np.arange(n) + 0.5), np.full(n, h)


def _refine(evaluate, quad: QuadratureSpec):
    """Node-doubling driver: evaluate(level) -> value; returns (value, err)."""
    prev = evaluate(0)
    for level in range(1, quad.max_levels + 1):
        cur = evaluate(level)
        err = abs(cur - prev)
        if err <= quad.tol:
            return cur, err
        prev = cur
    raise QuadratureError(
        f"quadrature did not reach tol={quad.tol:g} after {quad.max_levels} "
        f"doublings (last error estimate {err:g})")


def chord_square_integral(window: Window, quad: QuadratureSpec = QuadratureSpec()):
    """Geometric constant G(K) with a node-doubling error estimate.  The
    angular rule is midpoint; the radial one is Gauss-Legendre on an
    origin-centred disk and midpoint elsewhere, where kinks in the chord
    square make Gauss's node-doubling estimate erratic."""
    r_max = support_radius(window)
    origin_disk = isinstance(window, Disk) and window.center == (0.0, 0.0)
    radial = _gauss if origin_disk else _midpoint

    def evaluate(level: int) -> float:
        nr = quad.radial_nodes * 2 ** level
        nt = quad.angular_nodes * 2 ** level
        r, wr = radial(nr, 0.0, r_max)
        th, wt = _midpoint(nt, 0.0, 2.0 * math.pi)
        s_lo, s_hi, _ = chord_intervals(window, r[:, None], th[None, :])
        return float((wr @ ((s_hi - s_lo) ** 2) @ wt) / math.pi)

    return _refine(evaluate, quad)


def _closed_form_g(window: Window) -> float:
    """G(K) in closed form.  G is motion-invariant and, by Crofton's
    chord-power formula, equals (1/pi) int int_{K x K} |x - y|^-1 dx dy
    (Santalo, Integral Geometry and Geometric Probability, 1976)."""
    if isinstance(window, Disk):
        return 16.0 * window.radius ** 3 / 3.0
    a, b = window.x1 - window.x0, window.y1 - window.y0
    return ((2.0 / 3.0) * (a ** 3 + b ** 3 - (a * a + b * b) ** 1.5)
            + 2.0 * a * b * (a * math.asinh(b / a) + b * math.asinh(a / b))) / math.pi


def cox_bound(params: ModelParams, window: Window) -> float:
    """Planar bound (c^2 / lambda_n) * G(K), from the closed form of G."""
    params.check_kind("planar")
    return params.c ** 2 / params.lambda_n * _closed_form_g(window)


def satellite_bound(params: ModelParams) -> float:
    """Spherical bound 2 c^2 / n, exact."""
    params.check_kind("spherical")
    return 2.0 * params.c ** 2 / params.n


# ---------------------------------------------------------------------------
# Coarea check
# ---------------------------------------------------------------------------

def _gauss_bump(pts: np.ndarray) -> np.ndarray:
    d = pts - np.array([0.2, 0.1])
    return np.exp(-(d[:, 0] ** 2 + d[:, 1] ** 2) / (2.0 * 0.35 ** 2))


INTEGRANDS = {
    "one": lambda pts: np.ones(pts.shape[0]),
    "gauss": _gauss_bump,
    "xsq": lambda pts: pts[:, 0] ** 2,
}


def _area_integral(f, window: Window, quad: QuadratureSpec, level: int) -> float:
    n1 = quad.radial_nodes * 2 ** level
    n2 = quad.angular_nodes * 2 ** level
    if isinstance(window, Disk):
        rho, wr = _gauss(n1, 0.0, window.radius)
        ang, wa = _midpoint(n2, 0.0, 2.0 * math.pi)
        cx, cy = window.center
        xs = cx + rho[:, None] * np.cos(ang)[None, :]
        ys = cy + rho[:, None] * np.sin(ang)[None, :]
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        vals = f(pts).reshape(n1, n2) * rho[:, None]
        return float(wr @ vals @ wa)
    xs, wx = _gauss(n1, window.x0, window.x1)
    ys, wy = _gauss(n2, window.y0, window.y1)
    grid = np.column_stack([np.repeat(xs, n2), np.tile(ys, n1)])
    vals = f(grid).reshape(n1, n2)
    return float(wx @ vals @ wy)


def _chord_function(f, window: Window, theta: float, inner_nodes: int):
    """Returns g(r) = int over the chord of f ds, vectorized over r."""
    xg, wg = _leggauss(inner_nodes)

    def g(r: np.ndarray) -> np.ndarray:
        s_lo, s_hi, ok = chord_intervals(window, r, np.full_like(r, theta))
        mid = 0.5 * (s_lo + s_hi)
        half = 0.5 * (s_hi - s_lo)
        out = np.zeros_like(r)
        if not ok.any():
            return out
        s = mid[ok, None] + half[ok, None] * xg[None, :]
        ct, st = math.cos(theta), math.sin(theta)
        px = r[ok, None] * ct - s * st
        py = r[ok, None] * st + s * ct
        vals = f(np.column_stack([px.ravel(), py.ravel()])).reshape(s.shape)
        out[ok] = (vals @ wg) * half[ok]
        return out

    return g


def _radial_range(window: Window, theta: float):
    """Range of u_theta = x cos(theta) + y sin(theta) over the window."""
    ct, st = math.cos(theta), math.sin(theta)
    if isinstance(window, Disk):
        cu = window.center[0] * ct + window.center[1] * st
        return cu - window.radius, cu + window.radius
    vals = [x * ct + y * st for x in (window.x0, window.x1)
            for y in (window.y0, window.y1)]
    return min(vals), max(vals)


@dataclass(frozen=True)
class CoareaResult:
    lhs: float
    rhs: float
    ratio: float
    error_estimate: float


def coarea_check(integrand: str, window: Window, theta: float,
                 quad: QuadratureSpec = QuadratureSpec()) -> CoareaResult:
    """Compare the area integral of f over the window with the iterated
    chord integral over r in [0, inf) at fixed theta."""
    if integrand not in INTEGRANDS:
        raise ValueError(f"unknown integrand {integrand!r}; "
                         f"choose from {sorted(INTEGRANDS)}")
    f = INTEGRANDS[integrand]
    u_lo, u_hi = _radial_range(window, theta)
    r_lo, r_hi = max(0.0, u_lo), u_hi

    def eval_rhs(level: int) -> float:
        if r_hi <= r_lo:
            return 0.0
        n = quad.radial_nodes * 2 ** level
        g = _chord_function(f, window, theta, inner_nodes=32)
        if isinstance(window, Disk):
            # substitute r = cu + R sin(v): resolves the sqrt kinks at both
            # tangency radii; the r >= 0 clip lands at a smooth interior point
            cu = 0.5 * (u_lo + u_hi)
            R = 0.5 * (u_hi - u_lo)
            v_lo = math.asin(max(-1.0, min(1.0, (r_lo - cu) / R)))
            v, wv = _gauss(n, v_lo, 0.5 * math.pi)
            r = cu + R * np.sin(v)
            return float(np.sum(g(r) * R * np.cos(v) * wv))
        r, wr = _midpoint(n, r_lo, r_hi)
        return float(np.sum(g(r) * wr))

    def eval_lhs(level: int) -> float:
        return _area_integral(f, window, quad, level)

    lhs, err_l = _refine(eval_lhs, quad)
    rhs, err_r = _refine(eval_rhs, quad)
    ratio = rhs / lhs if lhs != 0.0 else math.nan
    return CoareaResult(lhs=lhs, rhs=rhs, ratio=ratio, error_estimate=err_l + err_r)
