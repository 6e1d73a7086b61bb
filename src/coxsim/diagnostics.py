"""Statistical machinery: test functionals, Campbell-Mecke and thinning-
invariance checks, count-histogram TV distances, certified Wasserstein lower
bounds, and the log-log rate regression.

One Functional type serves the experiments, the Glauber checks and the
Mecke checks: F(w) = h(counts of w in its regions), with h vectorized over a
ReplicateBatch; the close-pair indicator is the one non-count exception.
Region counts, memberships and the close-pair scan run once per batch.

The thinning-invariance kernel returns its two batches, and harness.tv_rows
makes their threshold rows; the Mecke kernels return per-replicate sides.

Every distance reported here is a LOWER bound on the Wasserstein distance
between the model law and the target PPP, in the metric induced by the
configuration total-variation distance: any {0,1}-valued functional (and any
count truncated at a cap) is 1-Lipschitz, so count-law TV distances and max
mean-gaps over a family are certified lower bounds.  Reporting is
conservative (stderr subtracted, floored at 0) so lower-bound claims hold
with the stated confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .geometry import (Annulus, Disk, LatitudeBand, Rect, SphericalCap, Window,
                       halves)
from .pointprocess import CoupledBatch, ReplicateBatch

BOOTSTRAP_RESAMPLES = 200
PAIR_BLOCK = 1 << 22  # dot products per block of the close-pair scan


# ---------------------------------------------------------------------------
# Count histograms and TV distances
# ---------------------------------------------------------------------------

POISSON_TAIL_TOL = 1e-12  # Poisson mass left beyond a truncated pmf


@lru_cache(maxsize=64)   # an entry holds about mean + 7 sqrt(mean) floats
def poisson_pmf(mean: float) -> tuple[np.ndarray, float]:
    """Poisson pmf vector truncated where the remaining tail mass is below
    POISSON_TAIL_TOL; returns (pmf, tail mass) so the truncation enters error
    budgets explicitly.  Each term is exp(k log m - m - log k!), so no term
    depends on exp(-m), which underflows to 0 from m = 746.  Cached, hence
    read-only."""
    if mean < 0:
        raise ValueError("Poisson mean must be nonnegative")
    pmf, tail = np.array([1.0]), 0.0
    if mean > 0.0:
        k = np.arange(int(mean + 40.0 * math.sqrt(mean) + 50) + 1)
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(k.size)])
        terms = np.exp(k * math.log(mean) - mean - log_fact)
        cum = np.cumsum(terms)
        last = min(int(np.searchsorted(cum, 1.0 - POISSON_TAIL_TOL)), k.size - 1)
        pmf, tail = terms[:last + 1].copy(), max(0.0, 1.0 - float(cum[last]))
    pmf.setflags(write=False)
    return pmf, tail


def _pmfs(counts: np.ndarray, q: np.ndarray) -> tuple:
    """The empirical pmf of an integer sample and the pmf q, zero-padded to
    one common length."""
    counts = np.asarray(counts, dtype=np.int64)
    n = max(int(counts.max(initial=0)) + 1, q.size)
    if q.size < n:   # np.pad would copy q even when it needs no padding
        q = np.concatenate([q, np.zeros(n - q.size)])
    return np.bincount(counts, minlength=n) / counts.size, q


def _tv(p: np.ndarray, q: np.ndarray, tail: float = 0.0):
    """TV (|p - q|_1 + tail) / 2 along the last axis; tail is q's mass
    beyond its support."""
    return 0.5 * (np.abs(p - q).sum(axis=-1) + tail)


def empirical_count_tv(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """TV distance between the empirical pmfs of two integer samples."""
    counts_b = np.asarray(counts_b, dtype=np.int64)
    return float(_tv(*_pmfs(counts_a, np.bincount(counts_b) / counts_b.size)))


def tv_vs_poisson(counts: np.ndarray, mean: float) -> float:
    """TV between the empirical count pmf and the Poisson(mean) pmf."""
    q, tail = poisson_pmf(mean)
    return float(_tv(*_pmfs(counts, q), tail))


def _bootstrap_tv(counts: np.ndarray, mean: float, rng: np.random.Generator) -> tuple:
    """tv_vs_poisson and its bootstrap stderr, from one pair of pmfs."""
    q, tail = poisson_pmf(mean)
    p_hat, q = _pmfs(counts, q)
    draws = rng.multinomial(counts.size, p_hat, size=BOOTSTRAP_RESAMPLES) / counts.size
    return float(_tv(p_hat, q, tail)), float(_tv(draws, q, tail).std(ddof=1))


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

def _columns(cols, rows: int, dtype=np.int64) -> np.ndarray:
    return np.array(cols, dtype=dtype).reshape(len(cols), rows).T


@dataclass(frozen=True)
class Functional:
    """F(w) = h(counts of w in regions), h mapping a (reps x len(regions))
    count matrix to reps float values.  The close-pair indicator sets
    pair_threshold instead of h.  The distance estimates need F to move by
    at most 1 when one point is added or removed; every preset does."""

    name: str
    regions: tuple
    h: Callable[[np.ndarray], np.ndarray] | None
    pair_threshold: float | None = None

    def counts(self, batch: ReplicateBatch) -> np.ndarray:
        return _columns([batch.counts(r) for r in self.regions], len(batch))

    def membership(self, batch: ReplicateBatch) -> np.ndarray:
        """(points x len(regions)) 0/1 int8 matrix of the batch's region masks."""
        if self.h is None:
            raise ValueError(f"{self.name} is not a count functional")
        return _columns([batch.membership(r) for r in self.regions], len(batch.points), np.int8)

    def moved(self, batch: ReplicateBatch, points: ReplicateBatch, sign: int = 1) -> np.ndarray:
        """Per point of points, F of its replicate of batch with the point added
        (sign 1) or removed (sign -1): h(counts + sign * its membership row)."""
        return self.h(self.counts(batch)[points.rep_ids] + sign * self.membership(points))

    def __call__(self, batch: ReplicateBatch) -> np.ndarray:
        if self.pair_threshold is not None:
            return (_max_pair_dot(batch) >= self.pair_threshold).astype(float)
        return self.h(self.counts(batch))


def _capped(counts, cap):
    return np.minimum(counts[:, 0], cap, dtype=float)


def _in_set(counts, values):
    return (counts[:, :1] == np.asarray(values)).any(axis=1).astype(float)


def _at_least(counts, ks):
    return np.all(counts >= np.asarray(ks), axis=1).astype(float)


def truncated_count(region, cap: int, name: str | None = None) -> Functional:
    label = name or f"min(count[{region.describe()}],{cap})"
    return Functional(label, (region,), partial(_capped, cap=cap))


def raw_count(region, name: str | None = None) -> Functional:
    label = name or f"count[{region.describe()}]"
    return Functional(label, (region,), partial(_capped, cap=math.inf))


def count_indicator(region, values, name: str | None = None) -> Functional:
    vals = sorted(set(values))
    label = name or f"1{{count[{region.describe()}] in {vals}}}"
    return Functional(label, (region,), partial(_in_set, values=vals))


def count_at_least(*levels, name: str | None = None) -> Functional:
    """Product of the indicators 1{count[region] >= k} over (region, k) levels
    (the empty product is the constant 1)."""
    label = name or "*".join(f"1{{count[{r.describe()}]>={k}}}" for r, k in levels)
    return Functional(label, tuple(r for r, _ in levels),
                      partial(_at_least, ks=tuple(k for _, k in levels)))


def close_pair_indicator(threshold: float, name: str | None = None) -> Functional:
    """1 iff some pair of sphere points has |dot| >= threshold, i.e. the
    configuration contains a nearly coincident or nearly antipodal pair.
    Points sharing an orbit have arcsine-distributed mutual angles, so such
    pairs are strongly enriched relative to independent uniform points."""
    return Functional(name or f"1{{close-pair|dot|>={threshold:g}}}", (), None,
                      pair_threshold=threshold)


def _max_pair_dot(batch: ReplicateBatch) -> np.ndarray:
    """Per-replicate max |p . q| over point pairs (-inf below 2), cached on the
    batch.  Equal-size replicates are stacked as (m, n, d) in blocks of at most
    PAIR_BLOCK dots (a replicate of over sqrt(PAIR_BLOCK) points is a block
    alone) and multiplied with the P @ P.T product one replicate uses, so dots
    match it bit for bit; the diagonal is masked to -inf before the row max."""
    def scan():
        points = batch.points[np.argsort(batch.rep_ids, kind="stable")]
        sizes = np.bincount(batch.rep_ids, minlength=len(batch))
        starts = np.cumsum(sizes) - sizes
        out = np.full(len(batch), -np.inf)
        for n in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
            reps = np.flatnonzero(sizes == n)
            step = max(1, PAIR_BLOCK // (n * n))
            for block in np.split(reps, range(step, reps.size, step)):
                pts = points[starts[block, None] + np.arange(n)]
                dots = (pts @ pts.transpose(0, 2, 1)).reshape(block.size, n * n)
                np.abs(dots, out=dots)
                dots[:, ::n + 1] = -np.inf
                out[block] = dots.max(axis=1)
        return out
    return batch.cached("max_pair_dot", scan)


# ---------------------------------------------------------------------------
# Distance estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceEstimate:
    """A certified lower-bound style distance value with its standard error;
    regions describes the region or functional that produced the value."""

    value: float
    stderr: float
    regions: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distance estimates are nonnegative")


def count_tv_lower_bound(samples: ReplicateBatch, region, target_mean: float,
                         rng: np.random.Generator,
                         region_name: str | None = None) -> DistanceEstimate:
    """TV between the empirical law of the region count and Poisson(target_mean),
    with a bootstrap stderr drawn from rng.

    A lower bound on the configuration Wasserstein distance: indicators of
    count level sets are {0,1}-valued and hence 1-Lipschitz.
    """
    counts = samples.counts(region)
    if counts.size < 1000:
        raise ValueError("TV lower bound needs at least 1000 samples")
    value, stderr = _bootstrap_tv(counts, target_mean, rng)
    name = region_name or region.describe()
    return DistanceEstimate(value=value, stderr=stderr, regions=name)


def _max_gap(gaps: np.ndarray, ses: np.ndarray, names: Sequence[str]) -> DistanceEstimate:
    """Largest |gap| minus the stderr of its functional, floored at 0."""
    j = int(np.argmax(np.abs(gaps)))
    value = max(0.0, abs(float(gaps[j])) - float(ses[j]))
    return DistanceEstimate(value=value, stderr=float(ses[j]), regions=names[j])


def wasserstein_lower_bound(samples: ReplicateBatch, reference_sampler,
                            functionals: Sequence[Functional],
                            rng: np.random.Generator,
                            ref_factor: int = 4) -> DistanceEstimate:
    """Max over a 1-Lipschitz family of |mean F(samples) - mean F(reference)|.

    The reference side is one batch of ref_factor * len(samples) fresh
    replicates, reference_sampler(reps, rng).  Reported value is the max gap
    minus the stderr of the maximizing functional, floored at 0.  The sweeps
    use the coupled form below; this uncoupled one is a test reference.
    """
    refs = reference_sampler(ref_factor * len(samples), rng)
    # (reps x functionals) matrices of F(replicate)
    ms, mr = (np.column_stack([F(b) for F in functionals]) for b in (samples, refs))
    gaps = ms.mean(axis=0) - mr.mean(axis=0)
    ses = np.sqrt(ms.var(axis=0, ddof=1) / ms.shape[0] + mr.var(axis=0, ddof=1) / mr.shape[0])
    return _max_gap(gaps, ses, [F.name for F in functionals])


def coupled_wasserstein_lower_bound(pairs: CoupledBatch,
                                    functionals: Sequence[Functional]) -> DistanceEstimate:
    """Same certified lower bound from coupled (model, exact-PPP twin) pairs.

    The per-pair difference F(model) - F(twin) is an unbiased estimate of the
    mean gap with variance concentrated on the event that the two members of
    the pair actually differ, which is what makes small gaps resolvable.
    """
    diffs = np.column_stack([F(pairs.model) - F(pairs.twin) for F in functionals])
    gaps = diffs.mean(axis=0)
    ses = diffs.std(axis=0, ddof=1) / math.sqrt(len(pairs))
    return _max_gap(gaps, ses, [f"coupled:{F.name}" for F in functionals])


# ---------------------------------------------------------------------------
# Campbell-Mecke checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeckeFunctional:
    """Two-argument test functional F(x, w) = g({x}) * h(w), g and h count
    Functionals.  Oracles, when present, give the closed-form common value of
    both sides."""

    name: str
    g: Functional
    h: Functional
    oracle_ppp: Callable[[float, Window], float] | None = None
    oracle_bpp: Callable[[int, Window], float] | None = None


def _point_sums(mfs, phi: ReplicateBatch) -> list:
    """Per replicate, sum_{x in Phi} F(x, Phi - x), for each F in mfs.  h's
    per-point values are made first, so g's are not held while they are."""
    return [np.bincount(phi.rep_ids, mf.h.moved(phi, phi, -1) * mf.g.h(mf.g.membership(phi)),
                        len(phi)) for mf in mfs]


def _palm_side(mfs, mass: float, x: ReplicateBatch, palm: ReplicateBatch) -> list:
    """Per replicate, mass * F(x, Palm) for each F in mfs, x one point each."""
    return [mass * mf.g(x) * mf.h(palm) for mf in mfs]


def mecke_check_ppp(mfs: Sequence[MeckeFunctional], lam: float, window: Window,
                    reps: int, rng: np.random.Generator) -> list[tuple]:
    """Per-replicate sides of E[sum_{x in Phi} F(x, Phi - x)] = lam |K| E[F(x, Phi')],
    one (left, right) pair of arrays per F in mfs, x uniform on the window K
    and Phi' a fresh PPP, the reduced Palm law (Slivnyak).  All on one draw:
    Phi, then Phi' and x once Phi is dropped."""
    lhs = _point_sums(mfs, ReplicateBatch.ppp(window, lam, reps, rng))
    palm = ReplicateBatch.ppp(window, lam, reps, rng)
    x = ReplicateBatch.bpp(window, 1, reps, rng)
    return list(zip(lhs, _palm_side(mfs, lam * window.area, x, palm)))


def mecke_check_bpp(mfs: Sequence[MeckeFunctional], n_points: int, window: Window,
                    reps: int, rng: np.random.Generator) -> list[tuple]:
    """Per-replicate sides of E[sum_{x in Phi_N} F(x, Phi_N - x)] = N E[F(x, Phi_{N-1})],
    one (left, right) pair of arrays per F in mfs, Phi_N a BPP of N uniform
    points and x uniform on the window.  All on one draw: Phi_N, then x and
    Phi_{N-1} once Phi_N is dropped."""
    if n_points < 1:
        raise ValueError("BPP needs at least one point")
    lhs = _point_sums(mfs, ReplicateBatch.bpp(window, n_points, reps, rng))
    x = ReplicateBatch.bpp(window, 1, reps, rng)
    palm = ReplicateBatch.bpp(window, n_points - 1, reps, rng)
    return list(zip(lhs, _palm_side(mfs, n_points, x, palm)))


# ---------------------------------------------------------------------------
# Thinning invariance
# ---------------------------------------------------------------------------

def invariance_check(lam: float, window: Window, t: float, reps: int,
                     rng: np.random.Generator):
    """(thin(Phi1, t) + thin(Phi2, 1 - t), a fresh PPP), reps replicates of
    each, Phi1 and Phi2 PPP(lam): two batches of one law."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("thinning level t must lie in [0, 1]")
    phi1 = ReplicateBatch.ppp(window, lam, reps, rng)
    phi2 = ReplicateBatch.ppp(window, lam, reps, rng)
    thinned = phi1.thin(t, rng).superpose(phi2.thin(1.0 - t, rng))
    return thinned, ReplicateBatch.ppp(window, lam, reps, rng)


# ---------------------------------------------------------------------------
# Rate regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    params: tuple
    distances: tuple
    slope: float
    intercept: float
    r_squared: float


def rate_regression(points) -> RateFit:
    """Least-squares fit of log(distance) against log(parameter).

    points are (parameter, distance) pairs of floats.  A slope near -1
    matches the 1/lambda_n and 1/n convergence rates.  Requires at least 4
    strictly increasing parameters and positive distances.
    """
    params = np.array([float(p) for p, _ in points])
    dists = np.array([float(d) for _, d in points])
    if params.size < 4:
        raise ValueError("rate regression needs at least 4 sweep points")
    if not np.all(np.diff(params) > 0):
        raise ValueError("sweep parameters must be strictly increasing")
    if np.any(dists <= 0):
        raise ValueError("rate regression requires positive distances")
    x, y = np.log(params), np.log(dists)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(tuple(params), tuple(dists), float(slope), float(intercept), r2)


# ---------------------------------------------------------------------------
# Region presets and functional families
# ---------------------------------------------------------------------------

def planar_region_set(window: Window):
    """Default planar regions: the window, a 4x4 grid of cells (inscribed
    square for a disk), and 3 concentric annuli.  Diverse geometries catch
    anisotropy: line-generated points show up as collinear clusters."""
    regions = [("window", window)]
    cx, cy = window.center
    if isinstance(window, Disk):
        half = window.radius / math.sqrt(2.0)
        x0, y0, side = cx - half, cy - half, 2.0 * half
        rho = window.radius
    else:
        x0, y0 = window.x0, window.y0
        side = min(window.x1 - window.x0, window.y1 - window.y0)
        rho = side / 2.0
    step = side / 4.0
    for i in range(4):
        for j in range(4):
            regions.append((f"cell_{i}{j}",
                            Rect(x0 + i * step, y0 + j * step,
                                 x0 + (i + 1) * step, y0 + (j + 1) * step)))
    for k, (a, b) in enumerate([(0.0, 0.5), (0.5, 0.75), (0.75, 1.0)]):
        regions.append((f"annulus_{k}", Annulus((cx, cy), a * rho, b * rho)))
    return regions


def sphere_region_set():
    """Default spherical regions: 6 latitude bands and 4 polar caps."""
    regions = [("sphere", LatitudeBand(-1.0, 1.0))]
    cuts = [-1.0, -2.0 / 3.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    for k in range(6):
        regions.append((f"band_{k}", LatitudeBand(cuts[k], cuts[k + 1])))
    for name, pole, h in (("cap_n05", 1.0, 0.5), ("cap_n08", 1.0, 0.8),
                          ("cap_s05", -1.0, 0.5), ("cap_s08", -1.0, 0.8)):
        regions.append((name, SphericalCap((0.0, 0.0, pole), h)))
    return regions


def sphere_functional_family() -> list[Functional]:
    """Curated 1-Lipschitz family for the satellite experiments.

    Same-orbit satellites produce (a) count overdispersion in bands and caps,
    (b) occupied antipodal cap pairs (every orbit entering a cap also enters
    its mirror cap), and (c) nearly coincident or antipodal point pairs.
    """
    fams: list[Functional] = []
    regions = dict(sphere_region_set())
    for k in range(6):
        band = regions[f"band_{k}"]
        fams.append(count_at_least((band, 2), name=f"1{{band_{k}>=2}}"))
        fams.append(truncated_count(band, 2, name=f"min(band_{k},2)"))
    for h in ("05", "08"):
        fams.append(count_at_least((regions[f"cap_n{h}"], 1), (regions[f"cap_s{h}"], 1),
                                   name=f"1{{cap_n{h}>=1}}1{{cap_s{h}>=1}}"))
    fams.append(close_pair_indicator(0.99))
    fams.append(close_pair_indicator(0.999))
    return fams


def planar_functional_family(window: Window) -> list[Functional]:
    """Curated 1-Lipschitz family for the line-model experiments.

    The dominant deviation is total-count overdispersion (the random chord
    structure mixes the Poisson intensity); annulus counts and cross-window
    cell products pick up the collinear clumping."""
    regions = dict(planar_region_set(window))
    fams = [
        count_indicator(window, {0}, name="1{total=0}"),
        count_indicator(window, {1}, name="1{total=1}"),
        count_at_least((window, 3), name="1{total>=3}"),
        count_at_least((window, 4), name="1{total>=4}"),
        truncated_count(window, 3, name="min(total,3)"),
    ]
    for k in range(3):
        ann = regions[f"annulus_{k}"]
        fams.append(count_at_least((ann, 2), name=f"1{{annulus_{k}>=2}}"))
        fams.append(truncated_count(ann, 2, name=f"min(annulus_{k},2)"))
    for a, b in (("00", "33"), ("03", "30")):
        fams.append(count_at_least((regions[f"cell_{a}"], 1), (regions[f"cell_{b}"], 1),
                                   name=f"1{{cell_{a}>=1}}1{{cell_{b}>=1}}"))
    return fams


def glauber_functionals(window: Window) -> list[Functional]:
    """Family for the Glauber property checks; left and right are the window
    halves (inscribed-square halves for a disk)."""
    left, right = halves(window)
    return [
        truncated_count(window, 3),
        raw_count(window),
        count_indicator(window, {0}),
        count_indicator(window, {1, 2}),
        truncated_count(left, 2),
        count_at_least((left, 1)),
        count_at_least((left, 1), (right, 1)),
    ]


def mecke_functionals(window: Window) -> list[MeckeFunctional]:
    """Family for the Campbell-Mecke checks on a window; A and B are the two
    halves of the window (inscribed-square halves for a disk)."""
    A, B = halves(window)
    aA, aB = A.area, B.area
    one, in_A = count_at_least(name="1"), count_at_least((A, 1))
    return [
        MeckeFunctional(
            "F=1", one, one,
            oracle_ppp=lambda lam, K: lam * K.area,
            oracle_bpp=lambda N, K: float(N)),
        MeckeFunctional(
            "F=1{x in A}", in_A, one,
            oracle_ppp=lambda lam, K: lam * aA,
            oracle_bpp=lambda N, K: N * aA / K.area),
        MeckeFunctional(
            "F=1{x in A}|w∩A|", in_A, raw_count(A),
            oracle_ppp=lambda lam, K: (lam * aA) ** 2,
            oracle_bpp=lambda N, K: N * (N - 1) * (aA / K.area) ** 2),
        MeckeFunctional(
            "F=1{x in A}1{|w∩B|>=1}", in_A, count_at_least((B, 1)),
            oracle_ppp=lambda lam, K: lam * aA * (1.0 - math.exp(-lam * aB)),
            oracle_bpp=lambda N, K: N * (aA / K.area)
            * (1.0 - (1.0 - aB / K.area) ** (N - 1))),
        MeckeFunctional("F=1{x in A}min(|w∩A|,2)", in_A, truncated_count(A, 2)),
    ]
