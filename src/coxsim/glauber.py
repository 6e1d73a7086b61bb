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

F is a count Functional (see diagnostics): adding or removing a point moves
its counts by the point's region-membership row, h(counts -/+ row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Functional, tv_rows
from .geometry import Window
from .pointprocess import (Configuration, ReplicateBatch, sample_ppp_window,
                           superpose, thin, uniform_in_window)


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
    traj, semi = [], []
    for _ in range(reps):
        traj.append(glauber_simulate(omega0, spec, rng, horizon=t).points)
        semi.append(semigroup_sample(omega0, t, spec, rng).points)
    return tv_rows(ReplicateBatch.stack(traj, omega0.space),
                   ReplicateBatch.stack(semi, omega0.space), regions)


# ---------------------------------------------------------------------------
# Generator and contraction
# ---------------------------------------------------------------------------

def generator_apply(F: Functional, omega: Configuration, spec: GlauberSpec,
                    reps: int, rng: np.random.Generator):
    """Generator L F(omega): exact death sum plus Monte Carlo birth integral.

    The birth integral uses antithetic pairs (a point and its reflection
    through the window center), which halves the variance for near-linear
    integrands at no bias.  reps counts antithetic pairs.
    """
    if reps < 1:
        raise ValueError("need at least one antithetic pair")
    members = F.membership(omega.points)
    c0 = members.sum(axis=0)
    f0 = F.h(c0[None, :])[0]
    death = float((F.h(c0 - members) - f0).sum())
    pts = uniform_in_window(spec.window, reps, rng)
    mirrored = 2.0 * np.asarray(spec.window.center) - pts
    ga = F.h(c0 + F.membership(pts)) - f0
    gb = F.h(c0 + F.membership(mirrored)) - f0
    pair_means = 0.5 * (ga + gb)
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
    z = np.asarray(z, dtype=float).reshape(1, -1)
    if not spec.window.contains(z)[0]:
        raise ValueError("z must lie inside the window")
    dz = F.membership(z)
    p = math.exp(-t)
    base = []
    survives = np.empty(reps, dtype=bool)
    for i in range(reps):
        base.append(semigroup_sample(omega, t, spec, rng).points)
        survives[i] = rng.random() < p
    counts = F.counts(ReplicateBatch.stack(base, omega.space))
    diffs = np.abs(F.h(counts + survives[:, None] * dz) - F.h(counts))
    se = float(diffs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return float(diffs.mean()), se
