"""Statistical machinery: Campbell-Mecke identity checks, thinning-invariance
checks, count-histogram total-variation distances, certified Wasserstein
lower bounds, and the log-log rate regression.

Every distance reported here is a LOWER bound on the Wasserstein distance
between the model law and the target PPP, in the metric induced by the
configuration total-variation distance: any {0,1}-valued functional of the
configuration is 1-Lipschitz (distinct configurations are at distance >= 1),
so both count-law TV distances and max mean-gaps over the registry are
certified lower bounds.  The true supremum over all 1-Lipschitz functionals
may be larger; reporting is conservative (stderr subtracted, floored at 0)
so lower-bound claims hold with the stated confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (Annulus, Disk, LatitudeBand, Rect, SphericalCap, Window,
                       halves)
from .glauber import (Functional, close_pair_indicator, count_at_least,
                      count_indicator, product_indicator, truncated_count)
from .pointprocess import Configuration, ppp_batch, region_counts, uniform_in_window

BOOTSTRAP_RESAMPLES = 200


# ---------------------------------------------------------------------------
# Count histograms and TV distances
# ---------------------------------------------------------------------------

def poisson_pmf(mean: float, tail_tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Poisson pmf vector truncated where the remaining tail mass is below
    tail_tol; returns (pmf, tail mass) so the truncation enters error budgets
    explicitly."""
    if mean < 0:
        raise ValueError("Poisson mean must be nonnegative")
    if mean == 0.0:
        return np.array([1.0]), 0.0
    terms = [math.exp(-mean)]
    cum = terms[0]
    k = 0
    kmax = int(mean + 40.0 * math.sqrt(mean) + 50)
    while cum < 1.0 - tail_tol and k < kmax:
        k += 1
        terms.append(terms[-1] * mean / k)
        cum += terms[-1]
    return np.array(terms), max(0.0, 1.0 - cum)


def _pad_to(a: np.ndarray, n: int) -> np.ndarray:
    return a if a.size >= n else np.pad(a, (0, n - a.size))


def empirical_count_tv(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """TV distance between the empirical pmfs of two integer samples."""
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts_b = np.asarray(counts_b, dtype=np.int64)
    n = max(counts_a.max(initial=0), counts_b.max(initial=0)) + 1
    pa = _pad_to(np.bincount(counts_a), n) / counts_a.size
    pb = _pad_to(np.bincount(counts_b), n) / counts_b.size
    return 0.5 * float(np.abs(pa - pb).sum())


def _count_pmfs(counts: np.ndarray, mean: float):
    """Empirical and Poisson(mean) pmfs padded to a common length, plus the
    Poisson tail mass beyond the truncation."""
    counts = np.asarray(counts, dtype=np.int64)
    q, tail = poisson_pmf(mean)
    n = max(int(counts.max(initial=0)) + 1, q.size)
    return _pad_to(np.bincount(counts), n) / counts.size, _pad_to(q, n), tail


def tv_vs_poisson(counts: np.ndarray, mean: float) -> float:
    """TV between the empirical count pmf and the Poisson(mean) pmf."""
    p_hat, q, tail = _count_pmfs(counts, mean)
    return 0.5 * (float(np.abs(p_hat - q).sum()) + tail)


def _bootstrap_tv_stderr(counts: np.ndarray, mean: float,
                         rng: np.random.Generator) -> float:
    p_hat, q, tail = _count_pmfs(counts, mean)
    draws = rng.multinomial(counts.size, p_hat, size=BOOTSTRAP_RESAMPLES) / counts.size
    tvs = 0.5 * (np.abs(draws - q).sum(axis=1) + tail)
    return float(tvs.std(ddof=1))


# ---------------------------------------------------------------------------
# Distance estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceEstimate:
    """A certified lower-bound style distance value with its standard error.

    kind is one of "tv-counts", "wasserstein-lower", "mean-gap"; regions
    describes the region set or functional that produced the value.
    """

    value: float
    stderr: float
    kind: str
    regions: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distance estimates are nonnegative")

    def conservative(self) -> float:
        return max(0.0, self.value - self.stderr)


def count_tv_lower_bound(samples, region, target_mean: float,
                         rng: np.random.Generator | None = None,
                         region_name: str | None = None) -> DistanceEstimate:
    """TV between the empirical law of count_in(., region) and Poisson(target_mean).

    A lower bound on the configuration Wasserstein distance: indicators of
    count level sets are {0,1}-valued and hence 1-Lipschitz.  samples may be
    a list of Configurations or a precomputed integer count array.
    """
    if isinstance(samples, np.ndarray):
        counts = samples.astype(np.int64)
    else:
        if len(samples) < 1000:
            raise ValueError("TV lower bound needs at least 1000 samples")
        counts = np.array([s.count_in(region) for s in samples], dtype=np.int64)
    if rng is None:
        rng = np.random.default_rng(0)   # bootstrap-only randomness
    value = tv_vs_poisson(counts, target_mean)
    stderr = _bootstrap_tv_stderr(counts, target_mean, rng)
    name = region_name or (region.describe() if region is not None else "counts")
    return DistanceEstimate(value=value, stderr=stderr, kind="tv-counts", regions=name)


def _eval_matrix(samples: Sequence[Configuration],
                 functionals: Sequence[Functional]) -> np.ndarray:
    out = np.empty((len(samples), len(functionals)))
    for i, cfg in enumerate(samples):
        for j, F in enumerate(functionals):
            out[i, j] = F(cfg)
    return out


def _require_lipschitz(functionals: Sequence[Functional]):
    bad = [F.name for F in functionals if not F.lipschitz]
    if bad:
        raise ValueError(f"family must be 1-Lipschitz; offending: {bad}")


def _max_gap(gaps: np.ndarray, ses: np.ndarray, names: Sequence[str]) -> DistanceEstimate:
    """Largest |gap| minus the stderr of its functional, floored at 0."""
    j = int(np.argmax(np.abs(gaps)))
    value = max(0.0, abs(float(gaps[j])) - float(ses[j]))
    return DistanceEstimate(value=value, stderr=float(ses[j]),
                            kind="wasserstein-lower", regions=names[j])


def wasserstein_lower_bound(samples: Sequence[Configuration], reference_sampler,
                            functionals: Sequence[Functional],
                            rng: np.random.Generator,
                            ref_factor: int = 4) -> DistanceEstimate:
    """Max over a 1-Lipschitz family of |mean F(samples) - mean F(reference)|.

    The reference side draws ref_factor * len(samples) fresh configurations
    from reference_sampler(rng).  Reported value is the max gap minus the
    stderr of the maximizing functional, floored at 0.
    """
    _require_lipschitz(functionals)
    n_ref = ref_factor * len(samples)
    refs = [reference_sampler(rng) for _ in range(n_ref)]
    ms = _eval_matrix(samples, functionals)
    mr = _eval_matrix(refs, functionals)
    gaps = ms.mean(axis=0) - mr.mean(axis=0)
    ses = np.sqrt(ms.var(axis=0, ddof=1) / ms.shape[0] + mr.var(axis=0, ddof=1) / mr.shape[0])
    return _max_gap(gaps, ses, [F.name for F in functionals])


def coupled_wasserstein_lower_bound(pairs, functionals: Sequence[Functional]) -> DistanceEstimate:
    """Same certified lower bound from coupled (model, exact-PPP twin) pairs.

    The per-pair difference F(model) - F(twin) is an unbiased estimate of the
    mean gap with variance concentrated on the event that the two members of
    the pair actually differ, which is what makes small gaps resolvable.
    """
    _require_lipschitz(functionals)
    n = len(pairs)
    diffs = np.empty((n, len(functionals)))
    for i, (a, b) in enumerate(pairs):
        for j, F in enumerate(functionals):
            diffs[i, j] = F(a) - F(b)
    gaps = diffs.mean(axis=0)
    ses = diffs.std(axis=0, ddof=1) / math.sqrt(n)
    return _max_gap(gaps, ses, [f"coupled:{F.name}" for F in functionals])


# ---------------------------------------------------------------------------
# Campbell-Mecke checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeckeFunctional:
    """Two-argument test functional F(x, w) = g(x) * h(|w ∩ B|).

    region_g None means g = 1.  h must be vectorized over integer arrays.
    Oracles, when present, give the closed-form common value of both sides.
    """

    name: str
    region_g: object | None
    region_h: object
    h: Callable[[np.ndarray], np.ndarray]
    oracle_ppp: Callable[[float, Window], float] | None = None
    oracle_bpp: Callable[[int, Window], float] | None = None


def mecke_functionals(window: Window) -> list[MeckeFunctional]:
    """Registry for the Campbell-Mecke checks on a window; regions are the
    two halves of the window (inscribed-square halves for a disk)."""
    A, B = halves(window)
    ones = lambda c: np.ones_like(c, dtype=float)
    ident = lambda c: c.astype(float)
    at_least_1 = lambda c: (c >= 1).astype(float)
    cap2 = lambda c: np.minimum(c, 2).astype(float)
    aA, aB = A.area, B.area
    return [
        MeckeFunctional(
            "F=1", None, A, ones,
            oracle_ppp=lambda lam, K: lam * K.area,
            oracle_bpp=lambda N, K: float(N)),
        MeckeFunctional(
            "F=1{x in A}", A, A, ones,
            oracle_ppp=lambda lam, K: lam * aA,
            oracle_bpp=lambda N, K: N * aA / K.area),
        MeckeFunctional(
            "F=1{x in A}|w∩A|", A, A, ident,
            oracle_ppp=lambda lam, K: (lam * aA) ** 2,
            oracle_bpp=lambda N, K: N * (aA / K.area) * (1.0 + (N - 1) * aA / K.area)),
        MeckeFunctional(
            "F=1{x in A}1{|w∩B|>=1}", A, B, at_least_1,
            oracle_ppp=lambda lam, K: lam * aA * (1.0 - math.exp(-lam * aB)),
            oracle_bpp=lambda N, K: N * (aA / K.area)
            * (1.0 - (1.0 - aB / K.area) ** (N - 1))),
        MeckeFunctional("F=1{x in A}min(|w∩A|,2)", A, A, cap2),
    ]


@dataclass(frozen=True)
class MeckeResult:
    name: str
    lhs: float
    rhs: float
    stderr: float            # combined stderr of lhs - rhs
    oracle: float | None

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= 3.0 * self.stderr


def _mecke_result(mf: MeckeFunctional, lhs_vals: np.ndarray, rhs_vals: np.ndarray,
                  oracle: float | None) -> MeckeResult:
    reps = lhs_vals.size
    se = math.sqrt(lhs_vals.var(ddof=1) / reps + rhs_vals.var(ddof=1) / reps)
    return MeckeResult(mf.name, float(lhs_vals.mean()), float(rhs_vals.mean()), se, oracle)


def mecke_check_ppp(mf: MeckeFunctional, lam: float, window: Window,
                    reps: int, rng: np.random.Generator) -> MeckeResult:
    """Check E[sum_{x in Phi} F(x, Phi - x)] = lam * int E[F(x, Phi)] dx."""
    counts, pts, ids = ppp_batch(window, lam, reps, rng)
    c_h = region_counts(pts, ids, mf.region_h, reps)
    if mf.region_g is None:
        c_g, c_gh = counts, c_h
    else:
        c_g = region_counts(pts, ids, mf.region_g, reps)
        if pts.shape[0]:
            both = mf.region_g.contains(pts) & mf.region_h.contains(pts)
            c_gh = np.bincount(ids[both], minlength=reps)
        else:
            c_gh = np.zeros(reps, dtype=np.int64)
    # points in region_h see the reduced count C_h - 1, others see C_h
    lhs_vals = c_gh * mf.h(np.maximum(c_h - 1, 0)) + (c_g - c_gh) * mf.h(c_h)
    # independent pair (x, Phi) for the right-hand side
    counts2, pts2, ids2 = ppp_batch(window, lam, reps, rng)
    c_h2 = region_counts(pts2, ids2, mf.region_h, reps)
    x = uniform_in_window(window, reps, rng)
    g_x = np.ones(reps) if mf.region_g is None else mf.region_g.contains(x).astype(float)
    rhs_vals = lam * window.area * g_x * mf.h(c_h2)
    return _mecke_result(mf, lhs_vals, rhs_vals,
                         mf.oracle_ppp(lam, window) if mf.oracle_ppp else None)


def mecke_check_bpp(mf: MeckeFunctional, n_points: int, window: Window,
                    reps: int, rng: np.random.Generator) -> MeckeResult:
    """Check E[sum_{x in Phi_N} F(x, Phi_N)] = N int E[F(x, Phi_{N-1} + x)] mu(dx)
    for the BPP supported by the uniform law on the window."""
    if n_points < 1:
        raise ValueError("BPP needs at least one point")
    pts = uniform_in_window(window, reps * n_points, rng)
    ids = np.repeat(np.arange(reps), n_points)
    c_h = region_counts(pts, ids, mf.region_h, reps)
    if mf.region_g is None:
        c_g = np.full(reps, n_points, dtype=np.int64)
    else:
        c_g = region_counts(pts, ids, mf.region_g, reps)
    lhs_vals = c_g * mf.h(c_h)
    # rhs: x ~ mu and an independent (N-1)-point BPP
    x = uniform_in_window(window, reps, rng)
    if n_points > 1:
        pts2 = uniform_in_window(window, reps * (n_points - 1), rng)
        ids2 = np.repeat(np.arange(reps), n_points - 1)
        c_h2 = region_counts(pts2, ids2, mf.region_h, reps)
    else:
        c_h2 = np.zeros(reps, dtype=np.int64)
    x_in_h = mf.region_h.contains(x).astype(np.int64)
    g_x = np.ones(reps) if mf.region_g is None else mf.region_g.contains(x).astype(float)
    rhs_vals = n_points * g_x * mf.h(c_h2 + x_in_h)
    return _mecke_result(mf, lhs_vals, rhs_vals,
                         mf.oracle_bpp(n_points, window) if mf.oracle_bpp else None)


# ---------------------------------------------------------------------------
# Thinning invariance
# ---------------------------------------------------------------------------

def invariance_check(lam: float, window: Window, t: float, regions, reps: int,
                     rng: np.random.Generator):
    """Per-region TV between counts of thin(Phi1, t) + thin(Phi2, 1-t) and a
    fresh PPP; returns a list of (region name, tv, threshold) rows with
    threshold 2/sqrt(reps)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("thinning level t must lie in [0, 1]")
    _, pts1, ids1 = ppp_batch(window, lam, reps, rng)
    _, pts2, ids2 = ppp_batch(window, lam, reps, rng)
    keep1 = rng.random(pts1.shape[0]) < t
    keep2 = rng.random(pts2.shape[0]) < (1.0 - t)
    _, pts3, ids3 = ppp_batch(window, lam, reps, rng)
    threshold = 2.0 / math.sqrt(reps)
    rows = []
    for name, region in regions:
        ca = (region_counts(pts1[keep1], ids1[keep1], region, reps)
              + region_counts(pts2[keep2], ids2[keep2], region, reps))
        cb = region_counts(pts3, ids3, region, reps)
        rows.append((name, empirical_count_tv(ca, cb), threshold))
    return rows


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

    A slope near -1 matches the 1/lambda_n and 1/n convergence rates.
    Requires at least 4 strictly increasing parameters and positive distances.
    """
    params = np.array([float(p) for p, _ in points])
    dists = np.array([d.value if isinstance(d, DistanceEstimate) else float(d)
                      for _, d in points])
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
    if isinstance(window, Disk):
        cx, cy = window.center
        half = window.radius / math.sqrt(2.0)
        x0, y0, side = cx - half, cy - half, 2.0 * half
        rho = window.radius
    else:
        x0, y0 = window.x0, window.y0
        side = min(window.x1 - window.x0, window.y1 - window.y0)
        cx, cy = 0.5 * (window.x0 + window.x1), 0.5 * (window.y0 + window.y1)
        rho = side / 2.0
    step = side / 4.0
    for i in range(4):
        for j in range(4):
            regions.append((f"cell_{i}{j}",
                            Rect(x0 + i * step, y0 + j * step,
                                 x0 + (i + 1) * step, y0 + (j + 1) * step)))
    for k, (a, b) in enumerate([(0.0, 0.5), (0.5, 0.75), (0.75, 1.0)]):
        if a == 0.0:
            regions.append((f"annulus_{k}", Disk((cx, cy), b * rho)))
        else:
            regions.append((f"annulus_{k}", Annulus((cx, cy), a * rho, b * rho)))
    return regions


def sphere_region_set():
    """Default spherical regions: 6 latitude bands and 4 polar caps."""
    regions = [("sphere", LatitudeBand(-1.0, 1.0))]
    cuts = [-1.0, -2.0 / 3.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    for k in range(6):
        regions.append((f"band_{k}", LatitudeBand(cuts[k], cuts[k + 1])))
    regions.append(("cap_n05", SphericalCap((0.0, 0.0, 1.0), 0.5)))
    regions.append(("cap_n08", SphericalCap((0.0, 0.0, 1.0), 0.8)))
    regions.append(("cap_s05", SphericalCap((0.0, 0.0, -1.0), 0.5)))
    regions.append(("cap_s08", SphericalCap((0.0, 0.0, -1.0), 0.8)))
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
        fams.append(count_at_least(band, 2, name=f"1{{band_{k}>=2}}"))
        fams.append(truncated_count(band, 2, name=f"min(band_{k},2)"))
    fams.append(product_indicator(regions["cap_n05"], 1, regions["cap_s05"], 1,
                                  name="1{cap_n05>=1}1{cap_s05>=1}"))
    fams.append(product_indicator(regions["cap_n08"], 1, regions["cap_s08"], 1,
                                  name="1{cap_n08>=1}1{cap_s08>=1}"))
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
        count_at_least(window, 3, name="1{total>=3}"),
        count_at_least(window, 4, name="1{total>=4}"),
        truncated_count(window, 3, name="min(total,3)"),
    ]
    for k in range(3):
        ann = regions[f"annulus_{k}"]
        fams.append(count_at_least(ann, 2, name=f"1{{annulus_{k}>=2}}"))
        fams.append(truncated_count(ann, 2, name=f"min(annulus_{k},2)"))
    fams.append(product_indicator(regions["cell_00"], 1, regions["cell_33"], 1,
                                  name="1{cell_00>=1}1{cell_33>=1}"))
    fams.append(product_indicator(regions["cell_03"], 1, regions["cell_30"], 1,
                                  name="1{cell_03>=1}1{cell_30>=1}"))
    return fams
