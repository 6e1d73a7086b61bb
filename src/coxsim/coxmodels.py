"""Exact batch samplers for the two Cox constructions.

Cox-Poisson on lines: a Poisson line process, lambda_n lines per unit of r
with theta uniform, each line carrying an independent 1-D PPP of per-length
intensity mu_n = c / lambda_n, observed in the window K.  Lines without a
point in K leave no trace, so the sampler draws only the point-carrying
ones: proposals through uniform points of K in uniform directions (the
chord-length-weighted line measure), thinned by (1 - e^-m) / m with
m = mu_n * chord length, each kept line carrying a zero-truncated
Poisson(m) number of uniform points on its chord.  The law is exact and the
cost O(c |K|) per replicate, whatever lambda_n.

Satellites: n i.i.d. uniform base points on the sphere, each carrying a
Poisson(mu_n) number of satellites at i.i.d. uniform angles on its orbit
(the great circle orthogonal to the base point).  By Poisson splitting the
sampler draws this law in O(c) per replicate, whatever n.

Each sampler draws reps replicates at once into a CoupledBatch: the model
and its twin, an exact PPP of the limiting intensity that keeps one point of
each point-carrying line or occupied orbit and is independent of the model
everywhere else.  sample_cox_line and sample_satellites_with_twin are their
one-replicate views, holding only the lines or orbits and the read-only
(n, d) point arrays; the params and window are the caller's.

Mean measures: the lines D(r, theta), r >= 0, sweep a half-plane that holds
any given point for half of the directions, so the cox-line model has mean
measure (c/2) Leb2 on every window; the satellite model's expected total
count is n * mu_n = c.  effective_intensity measures sampled counts.

MODELS holds one Model record per model, all the CLI and harness use of it.
Its functions look the samplers and bounds up in this module at call time,
so a wrapper installed in the module's namespace sees every call.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np

from .diagnostics import (planar_functional_family, planar_region_set,
                          sphere_functional_family, sphere_region_set)
from .geometry import Disk, Window, chord_intervals, orbit_frame
from .pointprocess import CoupledBatch, ModelParams, ReplicateBatch, sample_uniform_sphere
from .record import Record
from .steinbound import cox_bound, satellite_bound

# the largest mean numpy's Generator.poisson accepts
POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# peak bytes per point held, model and twin apart: tracemalloc reads 68-69
# (cox-line) and 104-111 (satellites) for run_sweep_point at 1000 reps and c = 100
# to 1000, and 132-148 for simulate of either model at 1e5 to 1e6 points
BYTES_PER_POINT = 200
# peak bytes per replicate held whatever its points: tracemalloc reads 345-353
# (cox-line) and 456-463 (satellites) for run_sweep_point at c = 0.01, lambda_n
# or n = 10, and 1e4 to 4e4 replicates
BYTES_PER_REPLICATE = 500
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: float, held: str):
    """Raise ValueError if holding held at once, need bytes, exceeds physical memory."""
    if need > PHYSICAL_MEMORY:
        raise ValueError(f"holding {held} at once needs about {need:.3g} bytes, "
                         f"above {PHYSICAL_MEMORY:.3g} of physical memory")


class CoxLineSample(Record):
    """One realization of the line-based Cox process clipped to a window;
    lines has shape (m, 2) with columns (r, theta) and holds only the lines
    that carry a point in the window, points (n, 2)."""

    lines: np.ndarray
    points: np.ndarray


class SatelliteSample(Record):
    """One realization of the satellite model: the base points of its
    occupied orbits and the (n, 3) satellites."""

    orbits: np.ndarray
    points: np.ndarray


def sample_cox_line_batch(params: ModelParams, window: Window, reps: int,
                          rng: np.random.Generator):
    """reps replicates of the line-based Cox process restricted to the window,
    with coupled exact-PPP twins.

    Only the lines that carry a point in the window are drawn, so the cost
    and memory are O(c |K|) per replicate, whatever lambda_n.  A line with
    chord length l carries Poisson(m) points, m = mu_n * l, so the lines that
    carry points form a Poisson line process of intensity
    lambda_n (1 - e^-m) <= c * l, each with a zero-truncated Poisson(m)
    count.  A line through a uniform point x of K in a uniform direction has
    density proportional to l (Santalo 1976), so Poisson(c |K| / 2) such
    proposals per replicate have intensity exactly c * l, and keeping each
    with probability (1 - e^-m) / m thins them to the point-carrying lines.
    A kept line's count is 1 + Poisson(m - T), where T is the first arrival
    of a unit-rate process on [0, m] given that one exists (inverse
    transform); its points are uniform on the chord.

    The twin takes no draws of its own.  The proposal points x are a PPP of
    intensity c/2 on K, and given its line each x is uniform on the chord, as
    is the first point a kept line carries.  So the twin, one point per
    proposal (the first point of its line if kept, x itself if rejected), is
    exactly PPP(c/2) on K and shares one point with each point-carrying line.

    Returns (lines, CoupledBatch): lines is the (M, 2) array of (r, theta) of
    every replicate's point-carrying lines, in replicate order; each model
    point carries its line's replicate id.  Draw order: proposal counts, the
    proposals' points in the window, their normal angles, the acceptance
    uniforms, the first arrivals, the further counts, the positions on the
    chords; at reps = 1 this is the sample_cox_line draw.
    """
    params.check_kind("planar")
    per_rep = rng.poisson(0.5 * params.c * window.measure, reps)
    x = window.uniform(int(per_rep.sum()), rng)
    alpha = rng.uniform(0.0, 2.0 * np.pi, x.shape[0])
    # the line through x with unit normal at angle alpha, as (r >= 0, theta)
    r = x[:, 0] * np.cos(alpha) + x[:, 1] * np.sin(alpha)
    theta = np.where(r < 0.0, np.mod(alpha + np.pi, 2.0 * np.pi), alpha)
    r = np.abs(r)
    s_lo, s_hi = chord_intervals(window, r, theta)
    lengths = s_hi - s_lo
    m = params.mu_n * lengths
    p_hit = -np.expm1(-m)                  # P(the line carries a point)
    keep = rng.random(m.size) * m < p_hit
    r, theta, s_lo, lengths, m, p_hit = (a[keep] for a in (r, theta, s_lo, lengths, m, p_hit))
    first = -np.log1p(-rng.random(m.size) * p_hit)
    marks = 1 + rng.poisson(np.maximum(m - first, 0.0))
    idx = np.repeat(np.arange(m.size), marks)
    s = s_lo[idx] + rng.random(idx.size) * lengths[idx]
    ct, st = np.cos(theta[idx]), np.sin(theta[idx])
    points = np.stack([r[idx] * ct - s * st, r[idx] * st + s * ct]).T
    proposal_reps = np.repeat(np.arange(reps), per_rep)
    x[keep] = points[np.cumsum(marks) - marks]   # each kept line's first point
    return np.column_stack([r, theta]), CoupledBatch(
        ReplicateBatch(points, proposal_reps[keep][idx], reps),
        ReplicateBatch(x, proposal_reps, reps))


def sample_cox_line(params: ModelParams, window: Window,
                    rng: np.random.Generator) -> CoxLineSample:
    """Sample the line-based Cox process restricted to the window."""
    lines, pair = sample_cox_line_batch(params, window, 1, rng)
    return CoxLineSample(lines=lines, points=pair.model.points)


def sample_satellites_batch(params: ModelParams, reps: int, rng: np.random.Generator):
    """reps replicates of the satellite model with coupled exact-PPP twins.

    n i.i.d. Poisson(c/n) orbit counts have the law of a Poisson(c) total
    spread over n uniform orbit labels, and unoccupied orbits carry no
    points, so a replicate draws its total, one label per point, and one base
    point per occupied (replicate, label) pair: O(c) work and memory per
    replicate.  The twin keeps the first point of each occupied orbit (the
    first points of distinct orbits are i.i.d. uniform on the sphere) and
    replaces every other point, in place, by a fresh uniform point.  It is
    then distributed exactly as the limiting PPP with intensity c * nu and
    differs from the model only where an orbit holds two or more points, so
    mean differences of functionals over the pairs are unbiased for the
    model-vs-PPP gap with far smaller variance than two independent samples.
    The twin's draws come after the model's.

    Returns (orbits, CoupledBatch): the base points of the occupied orbits,
    ordered by (replicate, label), and the replicate-aligned model and twin.
    """
    params.check_kind("spherical")
    rep_ids = np.repeat(np.arange(reps), rng.poisson(params.c, reps))
    labels = rng.integers(0, params.n, rep_ids.size)
    # orbits in (replicate, label) order by sort and scan: no composite key to overflow
    order = np.lexsort((labels, rep_ids))
    r, lab = rep_ids[order], labels[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (lab[1:] != lab[:-1])
    orbit_of = np.empty_like(order)
    orbit_of[order] = np.cumsum(new) - 1
    lead = np.empty_like(new)
    lead[order] = new                      # the first point of its orbit
    orbits = sample_uniform_sphere(rng, int(new.sum()))
    u, w = orbit_frame(orbits)
    phi = rng.uniform(0.0, 2.0 * np.pi, rep_ids.size)
    points = (np.cos(phi) * np.take(u.T, orbit_of, axis=1)
              + np.sin(phi) * np.take(w.T, orbit_of, axis=1)).T
    twin = points.copy(order="K")
    twin[~lead] = sample_uniform_sphere(rng, int(lead.size - orbits.shape[0]))
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


class Model(Record):
    """One model as the CLI and the harness see it; see MODELS."""

    name: str                # simulate/bound subcommand, INI model key
    experiment: str          # sweep subcommand
    c: float                 # default c
    sweep: tuple             # default sweep
    flags: tuple             # the sweep parameter's flags, type and help
    type: type
    help: str
    key: str                 # its simulate summary key
    param_text: str          # its bound line, formatted with its value
    window: Window | None    # default window; every window is None on the sphere
    mean: float              # mean count per unit c and unit measure: the count-law target
    params: Callable         # (c, sweep value) -> ModelParams
    sample: Callable         # (params, window, reps, rng) -> (lines or orbits, CoupledBatch)
    regions: Callable        # window -> [(name, region)], the whole window or sphere first
    family: Callable         # window -> the functional family
    bound: Callable          # (params, window) -> the explicit bound
    note: str | None = None  # printed after a sweep, formatted with its last row

    @property
    def dest(self) -> str:   # argparse's dest for the sweep parameter
        return self.flags[0].removeprefix("--").replace("-", "_")

    def describe(self, window) -> str:   # the window column of a bound row
        return "sphere" if window is None else window.describe()

    def finite_params(self, c: float, value, window, reps: int = 0) -> ModelParams:
        """params(c, value), checked to give a positive finite bound (it grows as
        c ** 2 and the cube of the window's size, so it overflows wherever the window
        measure does, and underflows to 0 for a tiny c or window), a mean count
        numpy's Poisson sampler accepts, and, for a run holding reps replicates at
        once, replicates and points that fit in physical memory.  Raises ValueError."""
        params = self.params(c, value)
        try:
            bound = self.bound(params, window)
        except OverflowError:
            bound = math.inf
        if not 0.0 < bound < math.inf:
            raise ValueError(f"the bound ({bound:g}) or the window measure is "
                             "outside float range")
        count = self.mean * c * self.regions(window)[0][1].measure
        if count > POISSON_MAX_MEAN:
            raise ValueError(f"the expected point count {count:g} is beyond the "
                             f"largest Poisson mean numpy draws, {POISSON_MAX_MEAN:g}")
        # each replicate, and its model and twin points
        check_memory(reps * (BYTES_PER_REPLICATE + 2 * count * BYTES_PER_POINT),
                     f"{2 * reps * count:.3g} points in {reps} replicates")
        return params


# in this order, the CLI's model choices
MODELS = {model.name: model for model in (
    Model("cox-line", "converge-cox", 1.0, (5.0, 10.0, 20.0, 40.0, 80.0),
          ("--lam", "--lambda"), float, "line intensity lambda_n", "lambda_n",
          "lambda_n={:g}", Disk((0.0, 0.0), 1.0), 0.5, params=ModelParams.planar,
          sample=lambda p, window, reps, rng: sample_cox_line_batch(p, window, reps, rng),
          regions=planar_region_set, family=planar_functional_family,
          bound=lambda p, window: cox_bound(p, window),
          note="note: measured intensity {eff_intensity:.4f} per unit area vs c={c:g}; "
               "the r >= 0 line construction has mean measure (c/2) Leb2, and "
               "distances are compared against the target {target_intensity:g}."),
    Model("satellites", "converge-sat", 2.0, (10.0, 20.0, 40.0, 80.0, 160.0),
          ("--n",), int, "orbit count", "n", "n={}", None, 1.0,
          params=ModelParams.spherical,
          sample=lambda p, window, reps, rng: sample_satellites_batch(p, reps, rng),
          regions=lambda w: sphere_region_set(), family=lambda w: sphere_functional_family(),
          bound=lambda p, window: satellite_bound(p)))}
