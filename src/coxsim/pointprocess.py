"""Exact point process samplers and replicate batches.

A point set is an (n, 2) array in the plane or an (n, 3) array on the unit
sphere.  Replicates of a sampler are stored flat, as one ReplicateBatch whose
column count is its space, and counted per region by region_counts.  Model
parameters store lambda_n, c and n; mu_n = c / lambda_n is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Disk, Window

# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Intensity bookkeeping: lambda_n (line intensity, or the orbit count n as
    a float in the spherical model), c, and orbit count n (1 in the plane);
    kind records which model the params were built for.  Build them with the
    planar/spherical constructors, which require finite positive values.
    """

    lambda_n: float
    c: float
    n: int
    kind: str

    @classmethod
    def planar(cls, c: float, lambda_n: float) -> "ModelParams":
        if not (0 < c < np.inf and 0 < lambda_n < np.inf):
            raise ValueError("planar model requires finite c > 0 and lambda_n > 0")
        return cls(lambda_n=lambda_n, c=c, n=1, kind="planar")

    @classmethod
    def spherical(cls, c: float, n: int) -> "ModelParams":
        if not (0 < c < np.inf and 1 <= n < 2 ** 63 and int(n) == n):   # int64 labels
            raise ValueError("spherical model requires finite c > 0, integer 1 <= n < 2^63")
        return cls(lambda_n=float(n), c=c, n=int(n), kind="spherical")

    @property
    def mu_n(self) -> float:
        """Point intensity per unit line length, or per orbit: c / lambda_n."""
        return self.c / self.lambda_n

    def check_kind(self, kind: str):
        if self.kind != kind:
            raise ValueError(f"{self.kind} params passed to the {kind} model")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def uniform_in_window(window: Window, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform points in the window (a binomial point process), by
    inverse transform."""
    if isinstance(window, Disk):
        rho = window.radius * np.sqrt(rng.random(n))
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        cx, cy = window.center
        return np.column_stack([cx + rho * np.cos(ang), cy + rho * np.sin(ang)])
    x = rng.uniform(window.x0, window.x1, n)
    y = rng.uniform(window.y0, window.y1, n)
    return np.column_stack([x, y])


def sample_ppp_window(window: Window, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP of intensity lam restricted to the window, as an
    (n, 2) array."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    return uniform_in_window(window, rng.poisson(lam * window.area), rng)


def sample_uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the unit sphere, as an (n, 3) array, via normalized
    Gaussians."""
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Replicate batches (hot paths for the diagnostics engine)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateBatch:
    """reps replicates stored flat: the points of all replicates and each
    point's replicate id.  The batch takes ownership of both arrays and makes
    them read-only, so derived values can be cached; they must not be views
    of data that will still change."""

    points: np.ndarray
    rep_ids: np.ndarray
    reps: int
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.rep_ids.setflags(write=False)

    def __len__(self) -> int:
        return self.reps

    @classmethod
    def stack(cls, point_arrays) -> "ReplicateBatch":
        """Batch of per-replicate (n_i, d) point arrays, in the given order."""
        sizes = [a.shape[0] for a in point_arrays]
        points = np.concatenate(point_arrays, dtype=float)
        return cls(points, np.repeat(np.arange(len(sizes)), sizes), len(sizes))

    @classmethod
    def tile(cls, points: np.ndarray, reps: int) -> "ReplicateBatch":
        """reps replicates of one (n, d) point array, as stack([points] * reps)."""
        return cls(np.tile(np.asarray(points, dtype=float), (reps, 1)),
                   np.repeat(np.arange(reps), len(points)), reps)

    @classmethod
    def concat(cls, batches) -> "ReplicateBatch":
        """The replicates of the batches, in order, as one batch."""
        offsets = np.cumsum([0] + [b.reps for b in batches])
        return cls(np.concatenate([b.points for b in batches]),
                   np.concatenate([b.rep_ids + o for b, o in zip(batches, offsets)]),
                   int(offsets[-1]))

    @classmethod
    def ppp(cls, window: Window, lam: float, reps: int,
            rng: np.random.Generator) -> "ReplicateBatch":
        """reps independent PPP(lam) samples on the window (see ppp_batch)."""
        _, points, rep_ids = ppp_batch(window, lam, reps, rng)
        return cls(points, rep_ids, reps)

    @classmethod
    def bpp(cls, window: Window, n: int, reps: int,
            rng: np.random.Generator) -> "ReplicateBatch":
        """reps samples of n uniform points: uniform_in_window(window, reps * n)."""
        return cls(uniform_in_window(window, reps * n, rng),
                   np.repeat(np.arange(reps), n), reps)

    def cached(self, key, compute) -> np.ndarray:
        """compute(), evaluated once per batch and key, as a read-only array."""
        if key not in self._cache:
            self._cache[key] = compute()
            self._cache[key].setflags(write=False)
        return self._cache[key]

    def counts(self, region) -> np.ndarray:
        """Per-replicate counts in the region (cached)."""
        return self.cached(("counts", region), lambda: region_counts(
            self.points, self.rep_ids, region, self.reps))

    def membership(self, region) -> np.ndarray:
        """Per-point mask: which points lie in the region (cached)."""
        return self.cached(("membership", region), lambda: region.contains(self.points))

    def thin(self, p: float, rng: np.random.Generator) -> "ReplicateBatch":
        """Independent p-thinning by np.compress; one uniform per point, even at p = 0, 1."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("retention probability must lie in [0, 1]")
        keep = rng.random(self.points.shape[0]) < p
        return ReplicateBatch(np.compress(keep, self.points, axis=0),
                              np.compress(keep, self.rep_ids), self.reps)

    def superpose(self, other: "ReplicateBatch") -> "ReplicateBatch":
        """Replicate-wise union: replicate j holds both batches' replicate j."""
        if (self.points.shape[1], self.reps) != (other.points.shape[1], other.reps):
            raise ValueError("can only superpose batches of the same space and size")
        return ReplicateBatch(np.concatenate([self.points, other.points]),
                              np.concatenate([self.rep_ids, other.rep_ids]), self.reps)


@dataclass(frozen=True)
class CoupledBatch:
    """Replicate-aligned model and twin batches; len() is the replicate count."""

    model: ReplicateBatch
    twin: ReplicateBatch

    def __len__(self) -> int:
        return len(self.model)


def ppp_batch(window: Window, lam: float, reps: int, rng: np.random.Generator):
    """reps independent PPP(lam) samples on the window, flattened.

    Returns (counts, points, rep_ids): counts has shape (reps,), points is the
    concatenation of all replicates, rep_ids labels each point's replicate.
    """
    counts = rng.poisson(lam * window.area, reps)
    total = int(counts.sum())
    points = uniform_in_window(window, total, rng)
    rep_ids = np.repeat(np.arange(reps), counts)
    return counts, points, rep_ids


def region_counts(points: np.ndarray, rep_ids: np.ndarray, region, reps: int) -> np.ndarray:
    """Per-replicate counts of flattened points inside a region.  np.compress
    gives what rep_ids[mask] gives, several times faster on batch-sized arrays."""
    return np.bincount(np.compress(region.contains(points), rep_ids), minlength=reps)
