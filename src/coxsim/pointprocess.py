"""Exact point process samplers and replicate batches.

A point set is an (n, 2) array in the plane or an (n, 3) array on the unit
sphere.  Replicates of a sampler are stored flat, as one ReplicateBatch whose
column count is its space; a batch tests each region once and counts from the
cached masks with region_counts.  Every point array built here is
coordinate-major: the transpose of a C-contiguous (d, n) block, so each
coordinate is one contiguous row and the regions' contains tests read
contiguous columns.  Model parameters store lambda_n, c and n; mu_n = c /
lambda_n is derived.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .geometry import Window
from .record import Record

COUNT_BLOCK = 1 << 15  # points per np.compress and np.bincount in region_counts

# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

class ModelParams(Record):
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

def sample_ppp_window(window: Window, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP of intensity lam restricted to the window, as an
    (n, 2) array."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    return window.uniform(rng.poisson(lam * window.measure), rng)


def sample_uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the unit sphere, as an (n, 3) array, via normalized
    Gaussians, drawn point by point and divided into coordinate rows."""
    v = rng.standard_normal((n, 3))
    return np.divide(v.T, np.linalg.norm(v, axis=1), out=np.empty((3, n))).T


# ---------------------------------------------------------------------------
# Replicate batches (hot paths for the diagnostics engine)
# ---------------------------------------------------------------------------

def _joined(point_arrays) -> np.ndarray:
    """The (n_i, d) point arrays, in order, as one coordinate-major float array."""
    rows = [np.asarray(a, dtype=float).T for a in point_arrays]
    out = np.empty((rows[0].shape[0], sum(r.shape[1] for r in rows)))
    return np.concatenate(rows, axis=1, out=out).T


class ReplicateBatch(Record):
    """reps replicates stored flat: the points of all replicates and each
    point's replicate id.  The batch takes ownership of both arrays and makes
    them read-only, so derived values can be cached; they must not be views
    of data that will still change.  Its named constructors and its methods
    build points coordinate-major (points.T is C-contiguous), as does every
    sampler; plain fancy indexing and ndarray.copy() return row-major arrays,
    so they use np.compress on points.T and copy(order="K") instead.  The
    cache, set in __post_init__, is no field: ==, hash and repr ignore it."""

    points: np.ndarray
    rep_ids: np.ndarray
    reps: int

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        self.points.setflags(write=False)
        self.rep_ids.setflags(write=False)

    def __len__(self) -> int:
        return self.reps

    @classmethod
    def stack(cls, point_arrays) -> "ReplicateBatch":
        """Batch of per-replicate (n_i, d) point arrays, in the given order."""
        sizes = [a.shape[0] for a in point_arrays]
        return cls(_joined(point_arrays), np.repeat(np.arange(len(sizes)), sizes), len(sizes))

    @classmethod
    def tile(cls, points: np.ndarray, reps: int) -> "ReplicateBatch":
        """reps replicates of one (n, d) point array, as stack([points] * reps)."""
        rows = np.tile(np.asarray(points, dtype=float).T, (1, reps))   # at reps 1, in points' layout
        return cls(np.ascontiguousarray(rows).T, np.repeat(np.arange(reps), len(points)), reps)

    @classmethod
    def concat(cls, batches) -> "ReplicateBatch":
        """The replicates of the batches, in order, as one batch."""
        offsets = np.cumsum([0] + [b.reps for b in batches])
        return cls(_joined([b.points for b in batches]),
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
        """reps samples of n uniform points: window.uniform(reps * n)."""
        return cls(window.uniform(reps * n, rng),
                   np.repeat(np.arange(reps), n), reps)

    def by_replicate(self) -> tuple:
        """(points, rep_ids) stably sorted by replicate; the batch's own arrays if
        they are, as samplers and concat leave them (superpose interleaves)."""
        if (self.rep_ids[:-1] <= self.rep_ids[1:]).all():
            return self.points, self.rep_ids
        order = np.argsort(self.rep_ids, kind="stable")
        return np.take(self.points.T, order, axis=1).T, self.rep_ids[order]

    def cached(self, key, compute) -> np.ndarray:
        """compute(), evaluated once per batch and key, as a read-only array."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = compute()
            value.setflags(write=False)
        return value

    def counts(self, *regions) -> np.ndarray:
        """Per-replicate counts of the points in all the regions, or the
        replicate sizes for none; cached, and counted from the cached masks."""
        def count():
            masks = [self.membership(r) for r in regions]
            return region_counts(reduce(np.logical_and, masks) if masks else None,
                                 self.rep_ids, self.reps)
        return self.cached(("counts", regions), count)

    def membership(self, region) -> np.ndarray:
        """Per-point mask: which points lie in the region (cached)."""
        return self.cached(("membership", region), lambda: region.contains(self.points))

    def thin(self, p: float, rng: np.random.Generator) -> "ReplicateBatch":
        """Independent p-thinning by np.compress; one uniform per point, even at p = 0, 1."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("retention probability must lie in [0, 1]")
        keep = rng.random(self.points.shape[0]) < p
        return ReplicateBatch(np.compress(keep, self.points.T, axis=1).T,
                              np.compress(keep, self.rep_ids), self.reps)

    def superpose(self, other: "ReplicateBatch") -> "ReplicateBatch":
        """Replicate-wise union: replicate j holds both batches' replicate j."""
        if (self.points.shape[1], self.reps) != (other.points.shape[1], other.reps):
            raise ValueError("can only superpose batches of the same space and size")
        return ReplicateBatch(_joined([self.points, other.points]),
                              np.concatenate([self.rep_ids, other.rep_ids]), self.reps)


class CoupledBatch(Record):
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
    counts = rng.poisson(lam * window.measure, reps)
    total = int(counts.sum())
    points = window.uniform(total, rng)
    rep_ids = np.repeat(np.arange(reps), counts)
    return counts, points, rep_ids


def region_counts(mask, rep_ids: np.ndarray, reps: int) -> np.ndarray:
    """Per-replicate counts of the points a mask selects, or of all for None.
    np.compress gives rep_ids[mask] several times faster; it and np.bincount,
    which copies a read-only input, run on blocks of COUNT_BLOCK points."""
    out = np.zeros(reps, np.int64)
    for lo in range(0, len(rep_ids), COUNT_BLOCK):
        ids = rep_ids[lo:lo + COUNT_BLOCK]
        out += np.bincount(ids if mask is None else np.compress(mask[lo:lo + COUNT_BLOCK], ids),
                           minlength=reps)
    return out
