"""Configurations (finite point multisets) and exact point process samplers.

A Configuration is an immutable finite multiset of points, either planar
(shape (n, 2)) or spherical (shape (n, 3)).  Replicates of a sampler are
stored flat, as one ReplicateBatch, and counted per region by region_counts.

Randomness is organized as counter-based streams: a (master seed, stream
index) pair keys a Philox generator, so distinct indices give independent
streams and identical pairs reproduce bit-identical output.  Stream j of
sweep point i in lane k is composite_index(k, i, j); see that function for
the exact layout.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .geometry import Disk, Window

PLANE = "plane"
SPHERE = "sphere"

_DIM = {PLANE: 2, SPHERE: 3}


# ---------------------------------------------------------------------------
# Reproducible streams
# ---------------------------------------------------------------------------

LANE_BITS = 8
POINT_BITS = 16
REP_BITS = 40


def composite_index(lane: int, point: int, replicate: int) -> int:
    """Pack (lane, sweep point, replicate) into one 64-bit stream index.

    Layout: lane in the top 8 bits, sweep-point index in the next 16,
    replicate (or block) index in the low 40.  Harness lanes: 0 = model
    samples, one stream per block of replicates (replicate j in block
    j // harness.BLOCK_REPS), 2 = reference samples, 3 = validation checks,
    4 = bootstrap; lane 1 (the retired intensity calibration) is not reused.
    """
    if not (0 <= lane < 2 ** LANE_BITS):
        raise ValueError(f"lane out of range: {lane}")
    if not (0 <= point < 2 ** POINT_BITS):
        raise ValueError(f"point index out of range: {point}")
    if not (0 <= replicate < 2 ** REP_BITS):
        raise ValueError(f"replicate index out of range: {replicate}")
    return (lane << (POINT_BITS + REP_BITS)) | (point << REP_BITS) | replicate


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master seed, stream index)."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2 ** 64, self.index % 2 ** 64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, lane: int, point: int = 0, replicate: int = 0) -> "RngStream":
        return RngStream(self.seed, composite_index(lane, point, replicate))


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

class Configuration:
    """Immutable finite multiset of points with an ambient-space tag."""

    __slots__ = ("points", "space")

    def __init__(self, points, space: str):
        if space not in _DIM:
            raise ValueError(f"unknown space {space!r}")
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = np.empty((0, _DIM[space]))
        if pts.ndim != 2 or pts.shape[1] != _DIM[space]:
            raise ValueError(f"points must have shape (n, {_DIM[space]}) for {space}")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @classmethod
    def empty(cls, space: str = PLANE) -> "Configuration":
        return cls(np.empty((0, _DIM[space])), space)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"Configuration({len(self)} points, {self.space})"

    def count_in(self, region) -> int:
        return int(region.contains(self.points).sum())


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Intensity bookkeeping: lambda_n (line intensity), mu_n (point intensity
    per unit length, or per orbit in the spherical model), c, and orbit count n.

    Use the planar/spherical constructors to get the couplings mu_n = c/lambda_n
    and mu_n = c/n enforced; kind records which model the params were built for
    ("custom" for hand-assembled values, accepted by either model as long as
    the coupling holds).
    """

    lambda_n: float
    mu_n: float
    c: float
    n: int
    kind: str = "custom"

    @classmethod
    def planar(cls, c: float, lambda_n: float) -> "ModelParams":
        if not (c > 0 and lambda_n > 0):
            raise ValueError("planar model requires c > 0 and lambda_n > 0")
        return cls(lambda_n=lambda_n, mu_n=c / lambda_n, c=c, n=1, kind="planar")

    @classmethod
    def spherical(cls, c: float, n: int) -> "ModelParams":
        if not (c > 0 and 1 <= n < 2 ** 63):   # orbit labels are int64
            raise ValueError("spherical model requires c > 0 and 1 <= n < 2^63")
        return cls(lambda_n=float(n), mu_n=c / n, c=c, n=int(n), kind="spherical")

    def check_planar(self):
        if self.kind not in ("planar", "custom"):
            raise ValueError(f"{self.kind} params passed to the planar model")
        if abs(self.mu_n * self.lambda_n - self.c) > 1e-9 * self.c:
            raise ValueError("params violate the planar coupling mu_n = c / lambda_n")

    def check_spherical(self):
        if self.kind not in ("spherical", "custom"):
            raise ValueError(f"{self.kind} params passed to the spherical model")
        if abs(self.mu_n * self.n - self.c) > 1e-9 * self.c:
            raise ValueError("params violate the spherical coupling mu_n = c / n")


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


def sample_ppp_window(window: Window, lam: float, rng: np.random.Generator) -> Configuration:
    """Homogeneous PPP of intensity lam restricted to the window."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    n = rng.poisson(lam * window.area)
    return Configuration(uniform_in_window(window, n, rng), PLANE)


def sample_uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere via normalized Gaussians."""
    m = 1 if n is None else n
    v = rng.standard_normal((m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[0] if n is None else v


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
    space: str
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.rep_ids.setflags(write=False)

    def __len__(self) -> int:
        return self.reps

    @classmethod
    def stack(cls, point_arrays, space: str) -> "ReplicateBatch":
        """Batch of per-replicate (n_i, d) point arrays, in the given order."""
        sizes = [a.shape[0] for a in point_arrays]
        points = np.concatenate([np.empty((0, _DIM[space]))] + list(point_arrays))
        return cls(points, np.repeat(np.arange(len(sizes)), sizes), len(sizes), space)

    @classmethod
    def concat(cls, batches) -> "ReplicateBatch":
        """The replicates of the batches, in order, as one batch."""
        offsets = np.cumsum([0] + [b.reps for b in batches])
        return cls(np.concatenate([b.points for b in batches]),
                   np.concatenate([b.rep_ids + o for b, o in zip(batches, offsets)]),
                   int(offsets[-1]), batches[0].space)

    @classmethod
    def ppp(cls, window: Window, lam: float, reps: int,
            rng: np.random.Generator) -> "ReplicateBatch":
        """reps independent PPP(lam) samples on the window (see ppp_batch)."""
        _, points, rep_ids = ppp_batch(window, lam, reps, rng)
        return cls(points, rep_ids, reps, PLANE)

    @classmethod
    def sphere_ppp(cls, mean: float, reps: int, rng: np.random.Generator) -> "ReplicateBatch":
        """reps independent PPPs of intensity mean * nu on the unit sphere:
        Poisson(mean) counts, then one draw of all the uniform points."""
        counts = rng.poisson(mean, reps)
        return cls(sample_uniform_sphere(rng, int(counts.sum())),
                   np.repeat(np.arange(reps), counts), reps, SPHERE)

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
        """Independent p-thinning; draws one uniform per point, even at p = 0 or 1."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("retention probability must lie in [0, 1]")
        keep = rng.random(self.points.shape[0]) < p
        return ReplicateBatch(self.points[keep], self.rep_ids[keep], self.reps, self.space)

    def superpose(self, other: "ReplicateBatch") -> "ReplicateBatch":
        """Replicate-wise union: replicate j holds both batches' replicate j."""
        if (self.space, self.reps) != (other.space, other.reps):
            raise ValueError("can only superpose batches of the same space and size")
        return ReplicateBatch(np.concatenate([self.points, other.points]),
                              np.concatenate([self.rep_ids, other.rep_ids]),
                              self.reps, self.space)


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
    """Per-replicate counts of flattened points inside a region."""
    mask = region.contains(points)
    return np.bincount(rep_ids[mask], minlength=reps)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def config_to_csv(cfg: Configuration) -> str:
    header = "x,y" if cfg.space == PLANE else "x,y,z"
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in cfg.points:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def config_from_csv(text: str) -> Configuration:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].strip()
    if header == "x,y":
        space = PLANE
    elif header == "x,y,z":
        space = SPHERE
    else:
        raise ValueError(f"unrecognized configuration CSV header {header!r}")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return Configuration(np.array(rows) if rows else np.empty((0, _DIM[space])), space)
