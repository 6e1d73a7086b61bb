"""Glauber birth-death dynamics for the homogeneous PPP on a window.

The dynamics: every point of the current configuration dies independently at
rate 1; births arrive at rate lambda * |W| and land uniformly in W.  The PPP
of intensity lambda on W is the stationary law.  Two equivalent views are
implemented and cross-checked:

  * exact event-driven trajectory simulation (no time discretization);
  * the thinning representation of the time-t semigroup,
    P_t F(w) = E[ F( thin(w, e^-t)  +  PPP((1 - e^-t) * lambda) ) ].

The module also evaluates the infinitesimal generator

    L F(w) = sum_{x in w} (F(w - x) - F(w)) + lambda * int_W (F(w + x) - F(w)) dx

(death sum exact, birth integral by antithetic Monte Carlo), and estimates
the semigroup's Lipschitz contraction |P_t F(w + z) - P_t F(w)| <= e^-t with
a coupled estimator.

Test functionals come from a small registry.  Every {0,1}-valued functional
is 1-Lipschitz for the configuration total-variation metric, as is any count
truncated at a cap; raw counts are 1-Lipschitz but unbounded and are flagged
as such.  The registry is intentionally closed but extensible: the certified
family yields lower bounds on suprema over all 1-Lipschitz functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Disk, Window, halves
from .pointprocess import (Configuration, sample_ppp_window, superpose, thin,
                           uniform_in_window)


@dataclass(frozen=True)
class GlauberSpec:
    """Birth-death dynamics targeting PPP(lam) on the window, run to horizon."""

    window: Window
    lam: float
    horizon: float = 20.0

    def __post_init__(self):
        if not (self.lam > 0 and self.window.area > 0):
            raise ValueError("birth rate lam * area must be positive")
        if not (0 <= self.horizon < math.inf):
            raise ValueError("horizon must be finite and nonnegative")

    @property
    def birth_rate(self) -> float:
        return self.lam * self.window.area


@dataclass(frozen=True)
class Functional:
    """Named evaluable map Configuration -> real with Lipschitz metadata."""

    name: str
    fn: Callable[[Configuration], float]
    lipschitz: bool = True
    bounded: bool = True

    def __call__(self, cfg: Configuration) -> float:
        return self.fn(cfg)


def truncated_count(region, cap: int, name: str | None = None) -> Functional:
    label = name or f"min(count[{region.describe()}],{cap})"
    return Functional(label, lambda cfg: float(min(cfg.count_in(region), cap)))


def raw_count(region, name: str | None = None) -> Functional:
    label = name or f"count[{region.describe()}]"
    return Functional(label, lambda cfg: float(cfg.count_in(region)),
                      lipschitz=True, bounded=False)


def count_indicator(region, values, name: str | None = None) -> Functional:
    vals = frozenset(values)
    label = name or f"1{{count[{region.describe()}] in {sorted(vals)}}}"
    return Functional(label, lambda cfg: float(cfg.count_in(region) in vals))


def count_at_least(region, k: int, name: str | None = None) -> Functional:
    label = name or f"1{{count[{region.describe()}]>={k}}}"
    return Functional(label, lambda cfg: float(cfg.count_in(region) >= k))


def product_indicator(region_a, ka: int, region_b, kb: int,
                      name: str | None = None) -> Functional:
    label = name or (f"1{{count[{region_a.describe()}]>={ka}}}*"
                     f"1{{count[{region_b.describe()}]>={kb}}}")
    return Functional(label, lambda cfg: float(
        cfg.count_in(region_a) >= ka and cfg.count_in(region_b) >= kb))


def close_pair_indicator(threshold: float, name: str | None = None) -> Functional:
    """1 iff some pair of sphere points has |dot| >= threshold, i.e. the
    configuration contains a nearly coincident or nearly antipodal pair.
    Points sharing an orbit have arcsine-distributed mutual angles, so such
    pairs are strongly enriched relative to independent uniform points."""

    def fn(cfg: Configuration) -> float:
        pts = cfg.points
        n = pts.shape[0]
        if n < 2:
            return 0.0
        dots = pts @ pts.T
        iu = np.triu_indices(n, k=1)
        return float(np.any(np.abs(dots[iu]) >= threshold))

    return Functional(name or f"1{{close-pair|dot|>={threshold:g}}}", fn)


def default_functionals(window: Window) -> list[Functional]:
    """Small registry used by the Glauber property checks; left and right
    are the window halves (inscribed-square halves for a disk)."""
    left, right = halves(window)
    return [
        truncated_count(window, 3),
        raw_count(window),
        count_indicator(window, {0}),
        count_indicator(window, {1, 2}),
        truncated_count(left, 2),
        count_at_least(left, 1),
        product_indicator(left, 1, right, 1),
    ]


# ---------------------------------------------------------------------------
# Trajectory simulation
# ---------------------------------------------------------------------------

def glauber_simulate(cfg0: Configuration, spec: GlauberSpec,
                     rng: np.random.Generator, horizon: float | None = None) -> Configuration:
    """Exact event-driven simulation of the dynamics up to the horizon."""
    t_end = spec.horizon if horizon is None else horizon
    if t_end < 0:
        raise ValueError("horizon must be nonnegative")
    if not spec.window.contains(cfg0.points).all():
        raise ValueError("initial configuration must lie inside the window")
    pts = [row.copy() for row in cfg0.points]
    b = spec.birth_rate
    t = 0.0
    # randomness consumed in blocks to keep the event loop cheap
    block = 256
    exps = rng.exponential(size=block)
    unis = rng.random(size=block)
    k = 0
    while True:
        if k >= block:
            exps = rng.exponential(size=block)
            unis = rng.random(size=block)
            k = 0
        rate = b + len(pts)
        t += exps[k] / rate
        if t > t_end:
            break
        u = unis[k] * rate
        if u < b:
            pts.append(uniform_in_window(spec.window, 1, rng)[0])
        else:
            # conditional on the death branch, u - b is uniform on [0, len(pts))
            pts.pop(int(u - b))
        k += 1
    return Configuration(np.array(pts) if pts else np.empty((0, 2)), cfg0.space)


def semigroup_sample(omega: Configuration, t: float, spec: GlauberSpec,
                     rng: np.random.Generator) -> Configuration:
    """One draw from the thinning representation of the time-t semigroup."""
    p = math.exp(-t)
    return superpose(thin(omega, p, rng),
                     sample_ppp_window(spec.window, (1.0 - p) * spec.lam, rng))


def semigroup_trajectory_consistency(omega0: Configuration, spec: GlauberSpec,
                                     t: float, regions, reps: int,
                                     rng: np.random.Generator):
    """Per-region TV between count histograms of the trajectory simulation
    and the thinning representation at time t.  Both are exact samplers of
    the same law, so the TV should sit at the Monte Carlo noise floor
    2/sqrt(reps)."""
    if reps < 1000:
        raise ValueError("TV comparison needs at least 1000 replicates")
    from .diagnostics import empirical_count_tv
    n_reg = len(regions)
    counts_a = np.empty((reps, n_reg), dtype=np.int64)
    counts_b = np.empty((reps, n_reg), dtype=np.int64)
    for i in range(reps):
        traj = glauber_simulate(omega0, spec, rng, horizon=t)
        rep_ = semigroup_sample(omega0, t, spec, rng)
        for j, (_, region) in enumerate(regions):
            counts_a[i, j] = traj.count_in(region)
            counts_b[i, j] = rep_.count_in(region)
    threshold = 2.0 / math.sqrt(reps)
    report = []
    for j, (name, _) in enumerate(regions):
        tv = empirical_count_tv(counts_a[:, j], counts_b[:, j])
        report.append((name, tv, threshold))
    return report


# ---------------------------------------------------------------------------
# Generator and contraction
# ---------------------------------------------------------------------------

def _antithetic_points(window: Window, pairs: int, rng: np.random.Generator):
    pts = uniform_in_window(window, pairs, rng)
    if isinstance(window, Disk):
        cx, cy = window.center
    else:
        cx = 0.5 * (window.x0 + window.x1)
        cy = 0.5 * (window.y0 + window.y1)
    mirrored = np.column_stack([2.0 * cx - pts[:, 0], 2.0 * cy - pts[:, 1]])
    return pts, mirrored


def generator_apply(F: Functional, omega: Configuration, spec: GlauberSpec,
                    reps: int, rng: np.random.Generator):
    """Generator L F(omega): exact death sum plus Monte Carlo birth integral.

    The birth integral uses antithetic pairs (a point and its reflection
    through the window center), which halves the variance for near-linear
    integrands at no bias.  reps counts antithetic pairs.
    """
    if reps < 1:
        raise ValueError("need at least one antithetic pair")
    f0 = F(omega)
    death = 0.0
    for x in omega.points:
        death += F(omega.remove(x)) - f0
    pts, mirrored = _antithetic_points(spec.window, reps, rng)
    pair_means = np.empty(reps)
    for i in range(reps):
        ga = F(omega.add(pts[i])) - f0
        gb = F(omega.add(mirrored[i])) - f0
        pair_means[i] = 0.5 * (ga + gb)
    birth = spec.birth_rate * pair_means.mean()
    se = spec.birth_rate * pair_means.std(ddof=1) / math.sqrt(reps) if reps > 1 else math.inf
    return float(death + birth), float(se)


def contraction_estimate(F: Functional, omega: Configuration, z, t: float,
                         spec: GlauberSpec, reps: int, rng: np.random.Generator):
    """Coupled estimate of |P_t F(omega + z) - P_t F(omega)|.

    Shares the thinning coins on omega and the fresh-PPP sample between the
    two semigroup draws, so each replicate differs only through survival of
    z; for 1-Lipschitz F the replicate difference is at most 1{z survives},
    whose mean is e^-t.
    """
    if not F.lipschitz:
        raise ValueError("contraction estimate requires a 1-Lipschitz functional")
    z = np.asarray(z, dtype=float)
    if not spec.window.contains(z.reshape(1, -1))[0]:
        raise ValueError("z must lie inside the window")
    p = math.exp(-t)
    diffs = np.empty(reps)
    for i in range(reps):
        base = semigroup_sample(omega, t, spec, rng)
        with_z = base.add(z) if rng.random() < p else base
        diffs[i] = abs(F(with_z) - F(base))
    se = float(diffs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return float(diffs.mean()), se
