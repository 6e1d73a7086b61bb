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

exactly, without draws: the birth integral moves F by GlauberSpec, the
intensity measure lambda * Leb(W), whose counts in regions Functional.moved
reads as it reads a batch's.  The module also estimates the semigroup's
Lipschitz contraction |P_t F(w + z) - P_t F(w)| <= e^-t with a coupled
estimator.

The samplers map a ReplicateBatch of starts to one draw per replicate (the
trajectory simulator to a horizon each call names), and the consistency and
contraction checks tile one (n, 2) start array across their replicates;
the generator and the contraction estimate serve a list of count Functionals,
each moved by one point with Functional.moved.  Every random kernel takes a
generator and returns draws: the consistency check its two batches, which
harness.tv_rows judges.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Window
from .pointprocess import ReplicateBatch
from .record import Record


class GlauberSpec(Record):
    """Birth-death dynamics targeting PPP(lam) on the window; also its birth
    measure lam * Leb(W), which answers counts as a ReplicateBatch does."""

    window: Window
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and self.window.measure > 0):
            raise ValueError("birth rate lam * area must be positive")

    def counts(self, *regions) -> float:
        """The mass of lam * Leb(W) in all the regions, regions pairwise disjoint
        and inside W: lam |W| for none (the birth rate), lam |R| for one, 0 for
        two or more; regions whose measures sum above |W| raise ValueError."""
        if sum(r.measure for r in regions) > (1.0 + 1e-12) * self.window.measure:
            raise ValueError("the birth integral needs each functional's regions "
                             "pairwise disjoint and inside the window")
        if len(regions) > 1:
            return 0.0
        return self.lam * (regions[0] if regions else self.window).measure


# ---------------------------------------------------------------------------
# Trajectory simulation
# ---------------------------------------------------------------------------

def glauber_simulate(omegas: ReplicateBatch, spec: GlauberSpec, rng: np.random.Generator,
                     horizon: float) -> ReplicateBatch:
    """Exact event-driven simulation up to the horizon, one trajectory per
    replicate.  Each lockstep step advances every live replicate by one event
    on its own Exp(b + size) clock and freezes those past the horizon.  The
    buffer holds each coordinate as a (reps, capacity) block; a replicate's
    points fill a row of both, a death swaps in the last one, and np.compress
    gathers the rows' live prefixes, coordinate-major, at the end."""
    if not 0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    if omegas.points.shape[1] != 2 or not omegas.membership(spec.window).all():
        raise ValueError("initial configurations must lie inside the window")
    reps, (points, ids) = len(omegas), omegas.by_replicate()
    size = omegas.counts().copy()   # the cached counts are read-only
    buf = np.empty((2, reps, max(8, 2 * int(size.max(initial=0)))))
    buf[:, ids, np.arange(ids.size) - (np.cumsum(size) - size)[ids]] = points.T
    b = spec.counts()
    clock = np.zeros(reps)
    live = np.arange(reps)
    while live.size:
        rate = b + size[live]
        clock[live] += rng.exponential(size=live.size) / rate
        running = clock[live] <= horizon
        live, rate = live[running], rate[running]
        u = rng.random(live.size) * rate
        born = live[u < b]
        if size[born].max(initial=0) >= buf.shape[2]:
            buf = np.concatenate([buf, np.empty_like(buf)], axis=2)
        buf[:, born, size[born]] = spec.window.uniform(born.size, rng).T
        size[born] += 1
        # given a death, u - b is uniform on [0, size); clipped for b + size rounding up
        dead = live[u >= b]
        gone = np.minimum((u[u >= b] - b).astype(np.int64), size[dead] - 1)
        size[dead] -= 1
        buf[:, dead, gone] = buf[:, dead, size[dead]]
    keep = np.arange(buf.shape[2]) < size[:, None]
    return ReplicateBatch(np.compress(keep.ravel(), buf.reshape(2, -1), axis=1).T,
                          np.repeat(np.arange(reps), size), reps)


def semigroup_sample(omegas: ReplicateBatch, t: float, spec: GlauberSpec,
                     rng: np.random.Generator) -> ReplicateBatch:
    """One draw per replicate from the thinning representation of P_t."""
    p = math.exp(-t)
    return omegas.thin(p, rng).superpose(
        ReplicateBatch.ppp(spec.window, (1.0 - p) * spec.lam, len(omegas), rng))


def semigroup_trajectory_consistency(omega0: np.ndarray, spec: GlauberSpec, t: float,
                                     reps: int, rng: np.random.Generator):
    """(trajectory simulation, thinning representation) at time t, reps
    replicates of each, all started from the (n, 2) array omega0.  Both are
    exact samplers of the same law, so their count TVs should sit at the
    Monte Carlo noise floor."""
    starts = ReplicateBatch.tile(omega0, reps)
    traj = glauber_simulate(starts, spec, rng, t)
    return traj, semigroup_sample(starts, t, spec, rng)


# ---------------------------------------------------------------------------
# Generator and contraction
# ---------------------------------------------------------------------------

def generator_apply(functionals, omegas: ReplicateBatch, spec: GlauberSpec) -> np.ndarray:
    """Generator L F(omega_j) for every replicate j and functional F, as a (reps x F)
    array, exactly: the death sum moves F by the points of omega_j, the birth integral
    by spec's intensity measure, each one Functional.moved, so h runs once per pattern."""
    return np.column_stack([F.moved(omegas, omegas, -1) + F.moved(omegas, spec)
                            - (omegas.counts() + spec.counts()) * F(omegas)
                            for F in functionals])


def contraction_estimate(functionals, omega: np.ndarray, z, t: float,
                         spec: GlauberSpec, reps: int, rng: np.random.Generator):
    """Coupled per-replicate differences whose mean estimates
    |P_t F(omega + z) - P_t F(omega)| for an (n, 2) start array omega, one
    array of reps differences per functional.

    Shares the thinning coins on omega and the fresh-PPP sample between the
    two semigroup draws, so each replicate differs only through survival of
    z; for 1-Lipschitz F the replicate difference is at most 1{z survives},
    whose mean is e^-t.  One batch of base draws serves every functional.
    """
    zs = ReplicateBatch.tile(np.reshape(z, (1, -1)), reps)
    if not zs.membership(spec.window).all():
        raise ValueError("z must lie inside the window")
    base = semigroup_sample(ReplicateBatch.tile(omega, reps), t, spec, rng)
    survives = rng.random(reps) < math.exp(-t)
    return [np.abs(F.moved(base, zs) - F(base)) * survives for F in functionals]
