"""Exact samplers for the two Cox constructions.

Cox-Poisson on lines: a Poisson number of lines hits the window (truncation
at r = support_radius is exact, since larger r gives an empty chord), each
line carries an independent 1-D PPP of per-length intensity mu_n on its
chord, mapped to the plane through the arc-length parametrization.

Satellites: n i.i.d. uniform base points on the sphere, each carrying a
Poisson(mu_n) number of satellites at i.i.d. uniform angles on its orbit
(the great circle orthogonal to the base point).

sample_cox_line and resample_marks share one chord-point placement, and
sample_satellites and sample_satellites_with_twin share one model draw.

Mean measures: the lines D(r, theta), r >= 0, sweep a half-plane that holds
any given point for half of the directions, so the cox-line model has mean
measure (c/2) Leb2 on every window; the satellite model's expected total
count is n * mu_n = c.  effective_intensity measures sampled counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Window, chord_intervals, orbit_frame, support_radius
from .pointprocess import (PLANE, SPHERE, Configuration, ModelParams,
                           sample_uniform_sphere)


@dataclass(frozen=True)
class CoxLineSample:
    """One realization of the line-based Cox process clipped to a window.

    lines has shape (m, 2) with columns (r, theta); intervals has shape (m, 2)
    with the chord [s_lo, s_hi] per line (zero-length rows for missing
    chords, flagged in hits).
    """

    lines: np.ndarray
    intervals: np.ndarray
    hits: np.ndarray
    points: Configuration
    params: ModelParams
    window: Window


@dataclass(frozen=True)
class SatelliteSample:
    """One realization of the satellite model: base points and satellites."""

    orbits: np.ndarray
    points: Configuration
    params: ModelParams


def _place_marks(r: np.ndarray, theta: np.ndarray, s_lo: np.ndarray,
                 lengths: np.ndarray, mu: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Poisson(mu * length) uniform points on each chord, as plane points."""
    m = r.size
    marks = rng.poisson(mu * lengths) if m else np.zeros(0, dtype=np.int64)
    total = int(marks.sum())
    if total == 0:
        return np.empty((0, 2))
    idx = np.repeat(np.arange(m), marks)
    s = s_lo[idx] + rng.random(total) * lengths[idx]
    ct, st = np.cos(theta[idx]), np.sin(theta[idx])
    return np.column_stack([r[idx] * ct - s * st, r[idx] * st + s * ct])


def sample_cox_line(params: ModelParams, window: Window,
                    rng: np.random.Generator, r_max: float | None = None) -> CoxLineSample:
    """Sample the line-based Cox process restricted to the window.

    r_max overrides the line truncation radius (default support_radius); any
    value at least support_radius yields the same law for the clipped points.
    """
    params.check_planar()
    if r_max is None:
        r_max = support_radius(window)
    m = rng.poisson(params.lambda_n * r_max)
    r = rng.uniform(0.0, r_max, m)
    theta = rng.uniform(0.0, 2.0 * np.pi, m)
    s_lo, s_hi, hits = chord_intervals(window, r, theta)
    pts = _place_marks(r, theta, s_lo, s_hi - s_lo, params.mu_n, rng)
    return CoxLineSample(lines=np.column_stack([r, theta]),
                         intervals=np.column_stack([s_lo, s_hi]), hits=hits,
                         points=Configuration(pts, PLANE),
                         params=params, window=window)


def resample_marks(sample: CoxLineSample, rng: np.random.Generator) -> CoxLineSample:
    """Redraw the point marks conditionally on the line set of a sample.

    This realizes the Cox defining property: given the lines, chord counts
    are independent Poissons with mean mu_n * chord_length.
    """
    s_lo, s_hi = sample.intervals[:, 0], sample.intervals[:, 1]
    pts = _place_marks(sample.lines[:, 0], sample.lines[:, 1], s_lo, s_hi - s_lo,
                       sample.params.mu_n, rng)
    return CoxLineSample(lines=sample.lines, intervals=sample.intervals,
                         hits=sample.hits, points=Configuration(pts, PLANE),
                         params=sample.params, window=sample.window)


def _draw_satellites(params: ModelParams, rng: np.random.Generator):
    """One satellite-model draw; returns (sample, per-orbit point counts)."""
    params.check_spherical()
    orbits = sample_uniform_sphere(rng, params.n)
    marks = rng.poisson(params.mu_n, params.n)
    total = int(marks.sum())
    if total == 0:
        pts = np.empty((0, 3))
    else:
        u, w = orbit_frame(orbits)
        idx = np.repeat(np.arange(params.n), marks)
        phi = rng.uniform(0.0, 2.0 * np.pi, total)
        pts = np.cos(phi)[:, None] * u[idx] + np.sin(phi)[:, None] * w[idx]
    sample = SatelliteSample(orbits=orbits, points=Configuration(pts, SPHERE),
                             params=params)
    return sample, marks


def sample_satellites(params: ModelParams, rng: np.random.Generator) -> SatelliteSample:
    """Sample the satellite model: n uniform orbits, Poisson(mu_n) points each."""
    return _draw_satellites(params, rng)[0]


def sample_satellites_with_twin(params: ModelParams, rng: np.random.Generator):
    """Sample the satellite model together with a coupled exact-PPP twin.

    The twin keeps the satellites of single-occupancy orbits (each is exactly
    uniform on the sphere) and replaces the points of multi-occupancy orbits
    by fresh i.i.d. uniform points.  Orbit counts sum to a Poisson(c) total,
    so the twin is distributed exactly as the limiting PPP with intensity
    c * nu, while sharing all randomness except the multi-orbit positions.
    Mean differences of functionals over such pairs are unbiased for the
    model-vs-PPP gap with far smaller variance than two independent samples.
    The model draw uses the same stream as sample_satellites.
    """
    sample, marks = _draw_satellites(params, rng)
    multi = marks >= 2
    n_replace = int(marks[multi].sum())
    if n_replace == 0:
        return sample, sample.points
    keep = ~multi[np.repeat(np.arange(params.n), marks)]
    fresh = sample_uniform_sphere(rng, n_replace)
    return sample, Configuration(np.vstack([sample.points.points[keep], fresh]), SPHERE)


def effective_intensity(counts, measure: float):
    """Empirical intensity: mean count per unit measure (area, or nu-measure
    on the sphere) of the region counted in, with its standard error."""
    counts = np.asarray(counts, dtype=float)
    if counts.size < 2 or not measure > 0:
        raise ValueError("effective intensity needs at least 2 counts and a "
                         "region of positive measure")
    value = counts.mean() / measure
    stderr = counts.std(ddof=1) / np.sqrt(counts.size) / measure
    return float(value), float(stderr)
