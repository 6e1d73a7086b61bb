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

The samplers map a ReplicateBatch of starts to one draw per replicate (the
trajectory simulator to a horizon each call names), and the consistency and
contraction checks repeat one (n, 2) start array across their replicates;
the generator and the contraction estimate share their draws across a list
of count Functionals, moved by a point's region-membership row, h(c -/+ row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import require_lipschitz, tv_rows
from .geometry import Window
from .pointprocess import ReplicateBatch, uniform_in_window


@dataclass(frozen=True)
class GlauberSpec:
    """Birth-death dynamics targeting PPP(lam) on the window."""

    window: Window
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and self.window.area > 0):
            raise ValueError("birth rate lam * area must be positive")

    @property
    def birth_rate(self) -> float:
        return self.lam * self.window.area


# ---------------------------------------------------------------------------
# Trajectory simulation
# ---------------------------------------------------------------------------

def glauber_simulate(omegas: ReplicateBatch, spec: GlauberSpec, rng: np.random.Generator,
                     horizon: float) -> ReplicateBatch:
    """Exact event-driven simulation up to the horizon, one trajectory per
    replicate.  Each lockstep step advances every live replicate by one event
    on its own Exp(b + size) clock and freezes those past the horizon; a
    replicate's points fill a buffer row, and a death swaps in the last one."""
    if not 0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    if omegas.points.shape[1] != 2 or not spec.window.contains(omegas.points).all():
        raise ValueError("initial configurations must lie inside the window")
    reps, order = len(omegas), np.argsort(omegas.rep_ids, kind="stable")
    ids = omegas.rep_ids[order]
    size = np.bincount(ids, minlength=reps)
    buf = np.empty((reps, max(8, 2 * int(size.max(initial=0))), 2))
    buf[ids, np.arange(ids.size) - (np.cumsum(size) - size)[ids]] = omegas.points[order]
    b = spec.birth_rate
    clock = np.zeros(reps)
    live = np.arange(reps)
    while live.size:
        rate = b + size[live]
        clock[live] += rng.exponential(size=live.size) / rate
        running = clock[live] <= horizon
        live, rate = live[running], rate[running]
        u = rng.random(live.size) * rate
        born = live[u < b]
        if size[born].max(initial=0) >= buf.shape[1]:
            buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
        buf[born, size[born]] = uniform_in_window(spec.window, born.size, rng)
        size[born] += 1
        # given a death, u - b is uniform on [0, size); clipped for b + size rounding up
        dead = live[u >= b]
        gone = np.minimum((u[u >= b] - b).astype(np.int64), size[dead] - 1)
        size[dead] -= 1
        buf[dead, gone] = buf[dead, size[dead]]
    keep = np.arange(buf.shape[1]) < size[:, None]
    return ReplicateBatch(buf[keep], np.repeat(np.arange(reps), size), reps)


def semigroup_sample(omegas: ReplicateBatch, t: float, spec: GlauberSpec,
                     rng: np.random.Generator) -> ReplicateBatch:
    """One draw per replicate from the thinning representation of P_t."""
    p = math.exp(-t)
    return omegas.thin(p, rng).superpose(
        ReplicateBatch.ppp(spec.window, (1.0 - p) * spec.lam, len(omegas), rng))


def semigroup_trajectory_consistency(omega0: np.ndarray, spec: GlauberSpec,
                                     t: float, regions, reps: int,
                                     rng: np.random.Generator):
    """Per-region TV between count histograms of the trajectory simulation
    and the thinning representation at time t, both started from the (n, 2)
    array omega0 in every replicate.  Both are exact samplers of
    the same law, so the TV should sit at the Monte Carlo noise floor
    2/sqrt(reps)."""
    if reps < 1000:
        raise ValueError("TV comparison needs at least 1000 replicates")
    starts = ReplicateBatch.stack([omega0] * reps)
    traj = glauber_simulate(starts, spec, rng, t)
    return tv_rows(traj, semigroup_sample(starts, t, spec, rng), regions)


# ---------------------------------------------------------------------------
# Generator and contraction
# ---------------------------------------------------------------------------

def generator_apply(functionals, omegas: ReplicateBatch, spec: GlauberSpec,
                    pairs: int, rng: np.random.Generator):
    """Generator L F(omega_j) for every replicate j and functional F: exact
    death sum plus a birth integral over `pairs` antithetic pairs per
    replicate (a point and its reflection through the window center, which
    halves the variance for near-linear integrands at no bias), shared by all
    functionals.  Returns (values, birth-integral stderrs), each (reps x F)."""
    if pairs < 1:
        raise ValueError("need at least one antithetic pair")
    reps, ids = len(omegas), omegas.rep_ids
    pts = uniform_in_window(spec.window, reps * pairs, rng)
    births, mirrored = (ReplicateBatch(p, np.repeat(np.arange(reps), pairs), reps)
                        for p in (pts, 2.0 * np.asarray(spec.window.center) - pts))
    values, stderrs = [], []
    for F in functionals:
        c0 = F.counts(omegas)
        f0 = F.h(c0)
        death = np.bincount(ids, F.h(c0[ids] - F.membership(omegas)) - f0[ids],
                            minlength=reps)
        c_pair, f_pair = np.repeat(c0, pairs, axis=0), np.repeat(f0, pairs)
        pair_means = 0.5 * ((F.h(c_pair + F.membership(births)) - f_pair)
                            + (F.h(c_pair + F.membership(mirrored)) - f_pair))
        pair_means = pair_means.reshape(reps, pairs)
        values.append(death + spec.birth_rate * pair_means.mean(axis=1))
        stderrs.append(spec.birth_rate * pair_means.std(ddof=1, axis=1) / math.sqrt(pairs)
                       if pairs > 1 else np.full(reps, math.inf))
    return np.column_stack(values), np.column_stack(stderrs)


def contraction_estimate(functionals, omega: np.ndarray, z, t: float,
                         spec: GlauberSpec, reps: int, rng: np.random.Generator):
    """Coupled estimates of |P_t F(omega + z) - P_t F(omega)| for an (n, 2)
    start array omega, one (estimate, stderr) pair per functional.

    Shares the thinning coins on omega and the fresh-PPP sample between the
    two semigroup draws, so each replicate differs only through survival of
    z; for 1-Lipschitz F the replicate difference is at most 1{z survives},
    whose mean is e^-t.  One batch of base draws serves every functional.
    """
    require_lipschitz(functionals)
    z = ReplicateBatch.stack([np.asarray(z, dtype=float).reshape(1, -1)])
    if not z.membership(spec.window)[0]:
        raise ValueError("z must lie inside the window")
    base = semigroup_sample(ReplicateBatch.stack([omega] * reps), t, spec, rng)
    survives = rng.random(reps) < math.exp(-t)
    out = []
    for F in functionals:
        counts = F.counts(base)
        diffs = np.abs(F.h(counts + survives[:, None] * F.membership(z)) - F.h(counts))
        se = float(diffs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
        out.append((float(diffs.mean()), se))
    return out
