"""Exact batch samplers for the two Cox constructions.

Cox-Poisson on lines: a Poisson number of lines hits the window (truncation
at r = support_radius is exact, since larger r gives an empty chord), each
line carries an independent 1-D PPP of per-length intensity mu_n on its
chord, mapped to the plane through the arc-length parametrization.

Satellites: n i.i.d. uniform base points on the sphere, each carrying a
Poisson(mu_n) number of satellites at i.i.d. uniform angles on its orbit
(the great circle orthogonal to the base point).  By Poisson splitting the
sampler draws this law in O(c) per replicate, whatever n.

Each sampler draws reps replicates at once into a ReplicateBatch;
sample_cox_line and sample_satellites_with_twin are their one-replicate
views, holding only the lines or orbits and the read-only (n, d) arrays
batch.points; the params and window are the caller's.

Mean measures: the lines D(r, theta), r >= 0, sweep a half-plane that holds
any given point for half of the directions, so the cox-line model has mean
measure (c/2) Leb2 on every window; the satellite model's expected total
count is n * mu_n = c.  effective_intensity measures sampled counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Window, chord_intervals, orbit_frame, support_radius
from .pointprocess import CoupledBatch, ModelParams, ReplicateBatch, sample_uniform_sphere


@dataclass(frozen=True)
class CoxLineSample:
    """One realization of the line-based Cox process clipped to a window;
    lines has shape (m, 2) with columns (r, theta), points (n, 2)."""

    lines: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class SatelliteSample:
    """One realization of the satellite model: the base points of its
    occupied orbits and the (n, 3) satellites."""

    orbits: np.ndarray
    points: np.ndarray


def sample_cox_line_batch(params: ModelParams, window: Window, reps: int,
                          rng: np.random.Generator):
    """reps replicates of the line-based Cox process restricted to the window.

    Returns (lines, batch): lines is the (M, 2) array of (r, theta) of every
    replicate's lines, in replicate order, and each point of batch carries its
    line's replicate id.  Draw order: line counts, r, theta, the marks of all
    lines, the positions on the chords; at reps = 1 this is the
    sample_cox_line draw.
    """
    params.check_kind("planar")
    r_max = support_radius(window)
    per_rep = rng.poisson(params.lambda_n * r_max, reps)
    m = int(per_rep.sum())
    r = rng.uniform(0.0, r_max, m)
    theta = rng.uniform(0.0, 2.0 * np.pi, m)
    s_lo, s_hi, _ = chord_intervals(window, r, theta)
    lengths = s_hi - s_lo
    marks = rng.poisson(params.mu_n * lengths)
    idx = np.repeat(np.arange(m), marks)
    s = s_lo[idx] + rng.random(idx.size) * lengths[idx]
    ct, st = np.cos(theta[idx]), np.sin(theta[idx])
    points = np.column_stack([r[idx] * ct - s * st, r[idx] * st + s * ct])
    rep_ids = np.repeat(np.arange(reps), per_rep)[idx]
    return np.column_stack([r, theta]), ReplicateBatch(points, rep_ids, reps)


def sample_cox_line(params: ModelParams, window: Window,
                    rng: np.random.Generator) -> CoxLineSample:
    """Sample the line-based Cox process restricted to the window."""
    lines, batch = sample_cox_line_batch(params, window, 1, rng)
    return CoxLineSample(lines=lines, points=batch.points)


def sample_satellites_batch(params: ModelParams, reps: int, rng: np.random.Generator):
    """reps replicates of the satellite model with coupled exact-PPP twins.

    n i.i.d. Poisson(c/n) orbit counts have the law of a Poisson(c) total
    spread over n uniform orbit labels, and unoccupied orbits carry no
    points, so a replicate draws its total, one label per point, and one base
    point per occupied (replicate, label) pair: O(c) work and memory per
    replicate.  The twin keeps the satellites of singly occupied orbits (each
    exactly uniform on the sphere) and replaces those of multiply occupied
    orbits, in place, by fresh uniform points.  It is then distributed
    exactly as the limiting PPP with intensity c * nu while sharing all other
    randomness with the model, so mean differences of functionals over the
    pairs are unbiased for the model-vs-PPP gap with far smaller variance
    than two independent samples.

    Returns (orbits, CoupledBatch): the base points of the occupied orbits,
    ordered by (replicate, label), and the replicate-aligned model and twin.
    """
    params.check_kind("spherical")
    rep_ids = np.repeat(np.arange(reps), rng.poisson(params.c, reps))
    labels = rng.integers(0, params.n, rep_ids.size)
    # unique rows rather than a composite key: no overflow for any n
    _, orbit_of, occupancy = np.unique(np.column_stack([rep_ids, labels]), axis=0,
                                       return_inverse=True, return_counts=True)
    orbit_of = orbit_of.ravel()   # 2-D on some numpy 2.0 releases
    orbits = sample_uniform_sphere(rng, occupancy.size)
    u, w = orbit_frame(orbits)
    phi = rng.uniform(0.0, 2.0 * np.pi, rep_ids.size)
    points = np.cos(phi)[:, None] * u[orbit_of] + np.sin(phi)[:, None] * w[orbit_of]
    twin = points.copy()
    multi = occupancy[orbit_of] >= 2
    twin[multi] = sample_uniform_sphere(rng, int(multi.sum()))
    return orbits, CoupledBatch(ReplicateBatch(points, rep_ids, reps),
                                ReplicateBatch(twin, rep_ids, reps))


def sample_satellites_with_twin(params: ModelParams, rng: np.random.Generator):
    """One satellite-model sample and its coupled exact-PPP twin
    (the one-replicate view of sample_satellites_batch)."""
    orbits, pair = sample_satellites_batch(params, 1, rng)
    return (SatelliteSample(orbits=orbits, points=pair.model.points),
            pair.twin.points)


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
