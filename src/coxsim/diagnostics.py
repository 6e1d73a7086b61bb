"""Statistical machinery: test functionals, Campbell-Mecke and thinning-
invariance checks, count-histogram TV distances, certified Wasserstein lower
bounds, and the log-log rate regression.

One Functional type serves the experiments, the Glauber checks and the
Mecke checks: F(w) = h(counts of w in its regions), with h vectorized over a
ReplicateBatch.  The satellite family's close-pair indicator, the one
statistic that is not a count, is a ClosePair.  Region counts, memberships
and the close-pair scan run once per batch.

The thinning-invariance kernel returns its two batches, and harness.tv_rows
makes their threshold rows; the Mecke kernels return the per-replicate left
sides of the Mecke identity, whose right sides are closed forms.

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
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .geometry import Annulus, LatitudeBand, Rect, Window
from .pointprocess import CoupledBatch, ReplicateBatch
from .record import Record

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


def count_pmfs(counts: np.ndarray, mean: float) -> tuple:
    """(p_hat, q, tail): the empirical pmf of an integer sample and the
    Poisson(mean) pmf, zero-padded to one length, and the Poisson mass beyond
    it.  tv_vs_poisson and count_tv_lower_bound take these arrays."""
    q, tail = poisson_pmf(mean)
    return (*_pmfs(counts, q), tail)


def tv_vs_poisson(pmfs: tuple) -> float:
    """TV between the empirical count pmf and the Poisson pmf of count_pmfs."""
    return float(_tv(*pmfs))


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

class Functional(Record):
    """F(w) = h(counts of w in regions), h mapping a (reps x len(regions))
    count matrix to reps float values.  The distance estimates need F to move
    by at most 1 when one point is added or removed; every preset does."""

    name: str
    regions: tuple
    h: Callable[[np.ndarray], np.ndarray]

    def counts(self, batch: ReplicateBatch) -> np.ndarray:
        cols = [batch.counts(r) for r in self.regions]
        return np.array(cols, dtype=np.int64).reshape(len(cols), len(batch)).T

    def moved(self, batch: ReplicateBatch, points: ReplicateBatch, sign: int = 1,
              g: Functional | None = None) -> np.ndarray:
        """Per replicate j, sum over x in points_j of g({x}) * F(batch_j + sign x),
        x added (sign 1) or removed (sign -1); g defaults to 1.  Both depend on
        x only through its membership pattern over their regions, so h and g.h
        run once per pattern, weighted by its point count per replicate: the
        per-point sum exactly, as h and g are integer-valued (every preset is)."""
        g, k = g or count_at_least(), len(self.regions)
        regions = tuple(dict.fromkeys(self.regions + g.regions))
        out, counts = np.zeros(len(batch)), None
        for code in range(1 << len(regions)):
            bits = np.array([code >> regions.index(r) & 1 for r in self.regions + g.regions])
            weight = g.h(bits[None, k:])[0]
            if weight and np.any(n := points.pattern_counts(regions, code)):
                if counts is None:   # once, and after pattern_counts has cached the masks
                    counts = self.counts(batch)
                out += n * self.h(counts + sign * bits[:k]) * weight
        return out

    def __call__(self, batch: ReplicateBatch) -> np.ndarray:
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


def raw_count(region) -> Functional:
    return Functional(f"count[{region.describe()}]", (region,), partial(_capped, cap=math.inf))


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


class ClosePair(Record):
    """1 iff some pair of sphere points has |dot| >= threshold, i.e. the
    configuration contains a nearly coincident or nearly antipodal pair.
    Points sharing an orbit have arcsine-distributed mutual angles, so such
    pairs are strongly enriched relative to independent uniform points.  Not
    a count functional: it has no regions and no point move."""

    threshold: float

    @property
    def name(self) -> str:
        return f"1{{close-pair|dot|>={self.threshold:g}}}"

    def __call__(self, batch: ReplicateBatch) -> np.ndarray:
        return (_max_pair_dot(batch) >= self.threshold).astype(float)


def _max_pair_dot(batch: ReplicateBatch) -> np.ndarray:
    """Per-replicate max |p . q| over point pairs (-inf below 2), cached on the
    batch.  Equal-size replicates are stacked as (m, n, d) in blocks of at most
    PAIR_BLOCK dots (a replicate of over sqrt(PAIR_BLOCK) points is a block
    alone) and multiplied with the P @ P.T product one replicate uses, so dots
    match it bit for bit; the diagonal is masked to -inf before the row max."""
    def scan():
        points, _ = batch.by_replicate()
        sizes = batch.counts()
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

class DistanceEstimate(Record):
    """A certified lower-bound style distance value with its standard error;
    regions describes the region or functional that produced the value."""

    value: float
    stderr: float
    regions: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distance estimates are nonnegative")


def count_tv_lower_bound(pmfs: tuple, reps: int, rng: np.random.Generator,
                         region_name: str) -> DistanceEstimate:
    """tv_vs_poisson of a region's count_pmfs over reps replicates, with a
    bootstrap stderr drawn from rng.

    A lower bound on the configuration Wasserstein distance: indicators of
    count level sets are {0,1}-valued and hence 1-Lipschitz.
    """
    if reps < 1000:
        raise ValueError("TV lower bound needs at least 1000 samples")
    p_hat, q, tail = pmfs
    draws = rng.multinomial(reps, p_hat, size=BOOTSTRAP_RESAMPLES) / reps
    return DistanceEstimate(value=tv_vs_poisson(pmfs), regions=region_name,
                            stderr=float(_tv(draws, q, tail).std(ddof=1)))


def _max_gap(gaps: np.ndarray, ses: np.ndarray, names: Sequence[str]) -> DistanceEstimate:
    """Largest |gap| minus the stderr of its functional, floored at 0."""
    j = int(np.argmax(np.abs(gaps)))
    value = max(0.0, abs(float(gaps[j])) - float(ses[j]))
    return DistanceEstimate(value=value, stderr=float(ses[j]), regions=names[j])


def wasserstein_lower_bound(samples: ReplicateBatch, reference_sampler,
                            functionals: Sequence[Functional | ClosePair],
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
                                    functionals: Sequence[Functional | ClosePair]
                                    ) -> DistanceEstimate:
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

class MeckeFunctional(Record):
    """Two-argument test functional F(x, w) = g({x}) * h(w), g and h count
    Functionals.  The oracles give the closed-form right side of the Mecke
    identity on the window the family was built on, from lambda or N."""

    name: str
    g: Functional
    h: Functional
    oracle_ppp: Callable[[float], float]
    oracle_bpp: Callable[[int], float]


def mecke_check_ppp(mfs: Sequence[MeckeFunctional], lam: float, window: Window,
                    reps: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-replicate left sides of E[sum_{x in Phi} F(x, Phi - x)] = lam |K| E[F(x, Phi)],
    Phi a PPP(lam) on the window K and x uniform on K (Slivnyak), one array per
    F in mfs; the right side is F's oracle_ppp(lam).  All on one draw of Phi,
    and one Functional.moved per F."""
    phi = ReplicateBatch.ppp(window, lam, reps, rng)
    return [mf.h.moved(phi, phi, -1, mf.g) for mf in mfs]


def mecke_check_bpp(mfs: Sequence[MeckeFunctional], n_points: int, window: Window,
                    reps: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-replicate left sides of E[sum_{x in Phi_N} F(x, Phi_N - x)] = N E[F(x, Phi_{N-1})],
    Phi_N a BPP of N uniform points on the window and x uniform on it, one
    array per F in mfs; the right side is F's oracle_bpp(N).  All on one draw
    of Phi_N, and one Functional.moved per F."""
    if n_points < 1:
        raise ValueError("BPP needs at least one point")
    phi = ReplicateBatch.bpp(window, n_points, reps, rng)
    return [mf.h.moved(phi, phi, -1, mf.g) for mf in mfs]


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

class RateFit(Record):
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
    return RateFit(float(slope), float(intercept), r2)


# ---------------------------------------------------------------------------
# Region presets and functional families
# ---------------------------------------------------------------------------

def planar_region_set(window: Window):
    """Default planar regions: the window, a 4x4 grid of cells (inscribed
    square for a disk), and 3 concentric annuli.  Diverse geometries catch
    anisotropy: line-generated points show up as collinear clusters."""
    regions = [("window", window)]
    cx, cy = window.center
    x0, y0, side, rho = window.grid_frame()
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
    """Default spherical regions, each a LatitudeBand z_lo <= p_z <= z_hi: the
    sphere, 6 bands of measure 1/3 from south to north, and 4 polar caps, the
    northern z >= 0.5 and z >= 0.8 and their southern mirrors."""
    return [(name, LatitudeBand(z_lo, z_hi)) for name, z_lo, z_hi in (
        ("sphere", -1.0, 1.0),
        ("band_0", -1.0, -2.0 / 3.0), ("band_1", -2.0 / 3.0, -1.0 / 3.0),
        ("band_2", -1.0 / 3.0, 0.0), ("band_3", 0.0, 1.0 / 3.0),
        ("band_4", 1.0 / 3.0, 2.0 / 3.0), ("band_5", 2.0 / 3.0, 1.0),
        ("cap_n05", 0.5, 1.0), ("cap_n08", 0.8, 1.0),
        ("cap_s05", -1.0, -0.5), ("cap_s08", -1.0, -0.8))]


def sphere_functional_family() -> list[Functional | ClosePair]:
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
    return [*fams, ClosePair(0.99), ClosePair(0.999)]


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
    left, right = window.halves()
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
    A, B = window.halves()
    aA, aB, aK = A.area, B.area, window.area
    one, in_A = count_at_least(name="1"), count_at_least((A, 1))
    return [
        MeckeFunctional(
            "F=1", one, one,
            oracle_ppp=lambda lam: lam * aK,
            oracle_bpp=lambda N: float(N)),
        MeckeFunctional(
            "F=1{x in A}", in_A, one,
            oracle_ppp=lambda lam: lam * aA,
            oracle_bpp=lambda N: N * aA / aK),
        MeckeFunctional(
            "F=1{x in A}|w∩A|", in_A, raw_count(A),
            oracle_ppp=lambda lam: (lam * aA) ** 2,
            oracle_bpp=lambda N: N * (N - 1) * (aA / aK) ** 2),
        MeckeFunctional(
            "F=1{x in A}1{|w∩B|>=1}", in_A, count_at_least((B, 1)),
            oracle_ppp=lambda lam: lam * aA * (1.0 - math.exp(-lam * aB)),
            oracle_bpp=lambda N: N * (aA / aK) * (1.0 - (1.0 - aB / aK) ** (N - 1))),
        MeckeFunctional(
            "F=1{x in A}min(|w∩A|,2)", in_A, truncated_count(A, 2),
            # E min(M, 2) = 2 - 2 P(M = 0) - P(M = 1), M the count of w in A
            oracle_ppp=lambda lam: lam * aA * (2.0 - (2.0 + lam * aA) * math.exp(-lam * aA)),
            oracle_bpp=lambda N: N * (aA / aK) * (
                2.0 - 2.0 * (1.0 - aA / aK) ** (N - 1)
                - (N - 1) * (aA / aK) * (1.0 - aA / aK) ** (N - 2))),
    ]
