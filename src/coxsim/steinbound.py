"""Numeric evaluation of the explicit convergence bounds and the coarea identity.

The planar bound is (c^2 / lambda_n) * G(K) with geometric constant

    G(K) = int_0^{2pi} int_0^{r_max} chord_length(K, (r, theta))^2 dr dtheta / pi.

The bound uses the closed forms G = 16 R^3 / 3 for every disk and, for an
a x b rectangle,

    G = [(2/3)(a^3 + b^3 - (a^2 + b^2)^(3/2))
         + 2ab (a asinh(b/a) + b asinh(a/b))] / pi;

the quadrature chord_square_integral is their independent cross-check (the
spherical bound 2 c^2 / n needs none).  Every chord integral here, in G and
in the coarea check, is piecewise smooth with breaks the window fixes, so one
rule serves both: Gauss-Legendre on each smooth piece.  In r a rect's chord
is linear between the sorted corner projections x cos(theta) + y sin(theta),
clipped at 0; a disk's is 2 R cos(v) after r = cu + R sin(v), between its
tangency radii.  In theta the pieces change only where a corner projection
or a tangency radius crosses 0, or two corner projections tie.

The coarea check evaluates both sides of the identity

    int_A f dx  vs  int_{r >= 0} ( int_{A ∩ D(r, theta)} f ds ) dr

at fixed theta and reports their ratio: the identity holds with ratio 1 only
when A lies in the half-plane {x cos(theta) + y sin(theta) >= 0}; for the
origin-centered disk the r >= 0 family sweeps exactly half of A and the
ratio is 1/2.  The check reports ratios rather than asserting equality.
For its integrands f = 1 and f = x^2 the left side and every chord integral
are in closed form; only the outer integral over r is numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Disk, Window, chord_intervals
from .pointprocess import ModelParams


class QuadratureError(RuntimeError):
    """Raised when node-doubling fails to reach the requested tolerance."""


NODES = 16        # Gauss-Legendre nodes per smooth piece at level 0
TOL = 1e-8        # node-doubling error estimate at which refinement stops
MAX_LEVELS = 6    # doublings allowed before QuadratureError


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; cached, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _piecewise_gauss(edges, n: int):
    """n-point Gauss-Legendre nodes and weights on each interval between
    consecutive edges (last axis, sorted); empty intervals get zero weight."""
    x, w = _leggauss(n)
    edges = np.asarray(edges, dtype=float)
    lo = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - lo)
    shape = edges.shape[:-1] + (-1,)
    return (lo + half * (x + 1.0)).reshape(shape), (half * w).reshape(shape)


def _radial_rule(window: Window, theta, n: int):
    """Nodes and weights in r >= 0 for integrals along the chords at angle(s)
    theta, n per smooth piece of the chord; shapes theta.shape + (k,)."""
    theta = np.asarray(theta, dtype=float)[..., None]
    ct, st = np.cos(theta), np.sin(theta)
    if isinstance(window, Disk):
        # r = cu + R sin(v): the chord is 2 R cos(v) between the tangency
        # radii, smooth in v; the r >= 0 clip moves the lower end only
        R = window.radius
        cu = window.center[0] * ct + window.center[1] * st
        v_lo = np.arcsin(np.clip(-cu / R, -1.0, 1.0))
        v, wv = _piecewise_gauss(
            np.concatenate([v_lo, np.full_like(v_lo, 0.5 * math.pi)], axis=-1), n)
        return cu + R * np.sin(v), wv * R * np.cos(v)
    # the chord is linear in r between the sorted corner projections
    proj = np.concatenate([x * ct + y * st for x in (window.x0, window.x1)
                           for y in (window.y0, window.y1)], axis=-1)
    return _piecewise_gauss(np.sort(np.maximum(0.0, proj), axis=-1), n)


def _angular_breaks(window: Window) -> list[float]:
    """Sorted angles in [0, 2 pi], ends included, between which the radial
    pieces of _radial_rule keep their order: where a disk's tangency radius
    or a rect corner's projection crosses 0, or two corners' projections tie."""
    if isinstance(window, Disk):
        (cx, cy), R = window.center, window.radius
        dist = math.hypot(cx, cy)
        # the tangency radii cu -+ R cross 0 at atan2(cy, cx) + k pi +- acos(R / dist)
        angles = [] if dist < R else [
            math.atan2(cy, cx) + k * math.pi + s * math.acos(R / dist)
            for k in (0, 1) for s in (-1, 1)]
    else:
        a, b = window.x1 - window.x0, window.y1 - window.y0
        # theta normal to a corner: its projection crosses 0; normal to the
        # difference of two corners: their projections tie
        vectors = [(x, y) for x in (window.x0, window.x1) for y in (window.y0, window.y1)]
        vectors += [(a, 0.0), (0.0, b), (a, b), (a, -b)]
        angles = [math.atan2(y, x) + k * math.pi / 2.0 for x, y in vectors for k in (1, 3)]
    # sorted(set()) rather than np.unique, which imports numpy.ma
    return sorted({0.0, 2.0 * math.pi} | {t % (2.0 * math.pi) for t in angles})


def _refine(evaluate):
    """Node-doubling driver: evaluate(level) -> value; returns (value, err)."""
    prev = evaluate(0)
    for level in range(1, MAX_LEVELS + 1):
        cur = evaluate(level)
        err = abs(cur - prev)
        if err <= TOL:
            return cur, err
        prev = cur
    raise QuadratureError(
        f"quadrature did not reach tol={TOL:g} after {MAX_LEVELS} "
        f"doublings (last error estimate {err:g})")


def chord_square_integral(window: Window):
    """Geometric constant G(K) with a node-doubling error estimate.  Only the
    angular rule doubles: NODES points integrate each radial piece, a
    quadratic (rect) or 4 R^3 cos^3(v) (disk), to rounding, and a fixed
    radial count keeps the top level's grid near 10^6 nodes."""
    breaks = _angular_breaks(window)

    def evaluate(level: int) -> float:
        th, wt = _piecewise_gauss(breaks, NODES * 2 ** level)
        r, wr = _radial_rule(window, th, NODES)
        s_lo, s_hi, _ = chord_intervals(window, r, th[:, None])
        return float(wt @ np.sum(wr * (s_hi - s_lo) ** 2, axis=1) / math.pi)

    return _refine(evaluate)


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

def _area_xsq(window: Window) -> float:
    if isinstance(window, Disk):
        return window.area * (window.center[0] ** 2 + window.radius ** 2 / 4.0)
    return (window.x1 ** 3 - window.x0 ** 3) * (window.y1 - window.y0) / 3.0


def _chord_xsq(a, b, s_lo, s_hi):
    def antiderivative(s):
        return s * (a * a - a * b * s + b * b * s * s / 3.0)
    return antiderivative(s_hi) - antiderivative(s_lo)


# integrand name -> (int_K f dx, int_{s_lo}^{s_hi} f ds along a chord whose
# x coordinate is x(s) = a - b s, a = r cos(theta), b = sin(theta)); both in
# closed form, so the radial rule is the check's only numerical step
INTEGRANDS = {
    "one": (lambda window: window.area, lambda a, b, s_lo, s_hi: s_hi - s_lo),
    "xsq": (_area_xsq, _chord_xsq),
}


@dataclass(frozen=True)
class CoareaResult:
    lhs: float
    rhs: float
    error_estimate: float

    @property
    def ratio(self) -> float:
        return self.rhs / self.lhs


def coarea_check(integrand: str, window: Window, theta: float) -> CoareaResult:
    """Compare the area integral of f over the window, in closed form, with
    the iterated chord integral over r in [0, inf) at fixed theta."""
    if integrand not in INTEGRANDS:
        raise ValueError(f"unknown integrand {integrand!r}; "
                         f"choose from {sorted(INTEGRANDS)}")
    area_integral, chord_integral = INTEGRANDS[integrand]
    ct, st = math.cos(theta), math.sin(theta)

    def eval_rhs(level: int) -> float:
        r, w = _radial_rule(window, theta, NODES * 2 ** level)
        s_lo, s_hi, _ = chord_intervals(window, r, theta)
        return float(np.sum(w * chord_integral(r * ct, st, s_lo, s_hi)))

    rhs, err = _refine(eval_rhs)
    return CoareaResult(lhs=float(area_integral(window)), rhs=rhs, error_estimate=err)
