"""Experiment orchestration: parameter sweeps, replicate scheduling, seed
management, the validation suite, and CSV/SVG emission.

Determinism contract: every random draw comes from stream(seed, lane,
point, index), the one maker of generators, keyed by (master seed,
composite_index(lane, point, index)), so a (config, seed) pair maps to
byte-identical CSV output on any machine.  Lanes: 0 model samples and their
twins, drawn in blocks of BLOCK_REPS replicates with one stream per block
(replicate j comes from block j // BLOCK_REPS); 3 validation checks; 4
bootstrap, one stream per (sweep point, region index).  Lanes 1 (the retired
intensity calibration) and 2 (the retired uncoupled reference samples) stay
unused so the others keep their streams.
Each sweep point makes one Wasserstein estimate, coupled: model against its
exact-PPP twin (see coxmodels); the rate fit reads it as w_distance.
Every per-model piece comes from coxmodels.MODELS.  The count-law target
is the model's closed-form mean measure, c/2 per unit area for cox-line
and c per unit nu-measure for satellites; it is derived, not configured.
eff_intensity is measured from the sweep's own samples.
The validation suite runs the groups of CHECKS on one replicate count, reps,
and every check section derives its own size from it.  The check kernels
take a generator and return draws: per-replicate values, which mc_row makes
rows, or two batches of one law, whose per-region count TVs tv_rows makes
threshold rows; within_3se judges every row.
Wall-clock metadata is kept out of all CSV files on purpose.
"""

from __future__ import annotations

import configparser
import math
import os
import time
from functools import partial

import numpy as np

from .coxmodels import MODELS, check_memory, effective_intensity
from .diagnostics import (DistanceEstimate, RateFit, count_pmfs,
                          count_tv_lower_bound, coupled_wasserstein_lower_bound,
                          empirical_count_tv, glauber_functionals, invariance_check,
                          mecke_check_bpp, mecke_check_ppp, mecke_functionals,
                          rate_regression, tv_vs_poisson)
from .geometry import WINDOW_KINDS, Disk, Rect, Window
from .glauber import (GlauberSpec, contraction_estimate, generator_apply,
                      semigroup_sample, semigroup_trajectory_consistency)
from .pointprocess import CoupledBatch, ReplicateBatch
from .record import Record
from .steinbound import chord_square_integral, coarea_check

# the schema line of results.csv, bumped when its columns change; the other
# CSVs are at 1
SCHEMA_VERSION = 4

LANE_SAMPLES = 0
LANE_CHECKS = 3
LANE_BOOTSTRAP = 4

# model replicates per stream: a constant, so a (config, seed) pair gives the
# same output on any machine, and the size of the largest sampler temporaries
BLOCK_REPS = 256

LANE_BITS = 8
POINT_BITS = 16
REP_BITS = 40


def composite_index(lane: int, point: int, replicate: int) -> int:
    """Pack (lane, sweep point, replicate or block) into one 64-bit stream
    index: the lane in the top 8 bits, the point in the next 16, the
    replicate in the low 40."""
    if not (0 <= lane < 2 ** LANE_BITS):
        raise ValueError(f"lane out of range: {lane}")
    if not (0 <= point < 2 ** POINT_BITS):
        raise ValueError(f"point index out of range: {point}")
    if not (0 <= replicate < 2 ** REP_BITS):
        raise ValueError(f"replicate index out of range: {replicate}")
    return (lane << (POINT_BITS + REP_BITS)) | (point << REP_BITS) | replicate


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def check_seed(seed: int) -> int:
    """The seed, if it is a Philox key word, in [0, 2^64); else a ConfigError."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def stream(seed: int, lane: int, point: int = 0, replicate: int = 0) -> np.random.Generator:
    """The Philox generator keyed by (seed, composite_index(lane, point,
    replicate)): distinct keys give independent streams, equal keys equal draws."""
    key = np.array([check_seed(seed), composite_index(lane, point, replicate)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

MIN_SWEEP_REPS = 1000   # replicates per sweep point, at least


class ExperimentConfig(Record):
    """A sweep configuration; c, sweep and window default to MODELS[model]'s."""

    model: str                       # a key of MODELS
    c: float | None = None
    sweep: tuple | None = None
    reps: int = 10_000
    seed: int = 0
    window: Window | None = None     # cox-line only

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be {' or '.join(MODELS)}, got {self.model!r}")
        model = MODELS[self.model]
        for key in ("c", "sweep", "window"):
            if getattr(self, key) is None:
                object.__setattr__(self, key, getattr(model, key))
        if len(self.sweep) < 4:
            raise ConfigError("sweep needs at least 4 values")
        if len(self.sweep) > 2 ** POINT_BITS:
            # composite_index has POINT_BITS for the sweep point
            raise ConfigError(f"sweep has {len(self.sweep)} values, more than {2 ** POINT_BITS}")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if self.reps < MIN_SWEEP_REPS:
            raise ConfigError(f"reps per sweep point must be at least {MIN_SWEEP_REPS}")
        check_seed(self.seed)
        if model.window is None and self.window is not None:
            raise ConfigError(f"model {self.model!r} lives on the sphere and takes no window")
        try:
            for v in self.sweep:
                model.finite_params(self.c, v, self.window, self.reps)
        except ValueError as exc:
            raise ConfigError(f"{exc}; got c={self.c:g}, sweep value {v:g}") from exc


def parse_window(text: str) -> Window:
    """Parse 'disk:cx,cy,R' or 'rect:x0,y0,x1,y1'."""
    try:
        kind, rest = text.split(":", 1)
        return WINDOW_KINDS[kind](*[float(v) for v in rest.split(",")])
    except (KeyError, ValueError, TypeError):
        pass
    raise ConfigError(f"cannot parse window {text!r}; use disk:cx,cy,R or rect:x0,y0,x1,y1")


def parse_sweep(text: str) -> tuple:
    """Parse comma- or space-separated sweep values."""
    return tuple(float(v) for v in text.replace(",", " ").split())


# the ExperimentConfig fields an INI file may set; the rest keep their defaults
_CONFIG_PARSERS = {"c": float, "sweep": parse_sweep, "reps": int, "seed": int,
                   "window": parse_window}
# Older config files carry two retired keys: calibration_reps, from when the
# intensity target was calibrated by Monte Carlo, is accepted and ignored;
# target_intensity, from when the count-law target could be set, is accepted
# only as auto, the model's mean measure, which every run uses.
_CONFIG_KEYS = {"model", *_CONFIG_PARSERS, "target_intensity", "calibration_reps",
                "out", "plots"}


def config_from_ini(path: str, flags: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """Read an INI experiment config; unknown keys and unparsable files are
    one-line errors.  Returns the config plus the extra options (out, plots).
    The config is built once from the defaults, the file, then flags (fields
    by name, model included), so a file value a flag replaces is not checked."""
    flags = flags or {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if "experiment" not in parser:
            raise ConfigError("config file needs an [experiment] section")
        section = parser["experiment"]
        unknown = set(section.keys()) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if section.get("target_intensity", "auto") != "auto":
            raise ConfigError("target_intensity must be auto: the count-law target is the "
                              "model's mean measure (c/2 for cox-line, c for satellites)")
        model = section.get("model")
        if model is None:
            raise ConfigError("missing required key: model")
        if flags.get("model", model) != model:
            raise ConfigError(f"config file is for model {model!r}, "
                              f"but the subcommand expects {flags['model']!r}")
        cfg = ExperimentConfig(**{"model": model,
                                  **{key: parse(section[key])
                                     for key, parse in _CONFIG_PARSERS.items()
                                     if key in section and key not in flags},
                                  **flags})
        extras = {"out": section.get("out", fallback=None),
                  "plots": section.getboolean("plots", fallback=False)}
    except ConfigError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"invalid config file: {' '.join(str(exc).split())}") from exc
    return cfg, extras


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

class ExperimentResult(Record):
    """A finished sweep, built once by run_experiment: one row per sweep point,
    and the rate fit, or None and the reason in fit_error."""

    config: ExperimentConfig
    rows: tuple = ()
    fit: RateFit | None = None
    fit_error: str = ""
    wall_seconds: float = 0.0


RESULTS_COLUMNS = [
    "model", "c", "param", "reps", "target_intensity",
    "eff_intensity", "eff_stderr", "w_distance", "w_stderr", "w_functional",
    "tv_distance", "tv_stderr",
    "tv_region", "bound", "bound_respected",
]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def csv_line(values) -> str:
    """One line of every CSV coxsim writes: floats at 17 significant digits,
    None as an empty field.  Fields are not quoted, so a name such as
    min(total,3) keeps its comma inside brackets."""
    return ",".join(_fmt(v) for v in values) + "\n"


def csv_header(columns, version: int = 1) -> str:
    """The schema-version comment line, then the column names."""
    return f"# schema_version={version}\n" + csv_line(columns)


def _write_csv(path, columns, rows, version: int = 1):
    """Write the rows (dicts keyed by column) to path, flushing each line as
    its row arrives, so a failed sweep keeps the rows it completed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_header(columns, version))
        for row in rows:
            fh.write(csv_line(row.get(c, "") for c in columns))
            fh.flush()


def _bound_respected(estimates: list[DistanceEstimate], bound: float) -> bool:
    return all(within_3se(e.value, bound, e.stderr, one_sided=True) for e in estimates)


def model_blocks(seed: int, point_idx: int, reps: int, draw) -> list:
    """draw(size, rng) for each block of BLOCK_REPS model replicates (the
    last one smaller); block b uses stream (LANE_SAMPLES, point_idx, b)."""
    return [draw(min(BLOCK_REPS, reps - start),
                 stream(seed, LANE_SAMPLES, point_idx, start // BLOCK_REPS))
            for start in range(0, reps, BLOCK_REPS)]


def run_sweep_point(cfg: ExperimentConfig, point_idx: int, value: float) -> dict:
    """Run one sweep point: sample model and twin, estimate distances,
    evaluate the bound.  Deterministic given (config, master seed, point
    index)."""
    seed = cfg.seed
    model = MODELS[cfg.model]
    params = model.params(cfg.c, value)
    regions = model.regions(cfg.window)
    family = model.family(cfg.window)
    target = model.mean * cfg.c
    draw = partial(model.sample, params, cfg.window)
    bound = model.bound(params, cfg.window)
    pairs = [pair for _, pair in model_blocks(seed, point_idx, cfg.reps, draw)]
    samples = ReplicateBatch.concat([pair.model for pair in pairs])
    # the headline of the rate fit: the largest mean gap over the family
    # between model and exact-PPP twin, stderr already subtracted
    w_est = coupled_wasserstein_lower_bound(
        CoupledBatch(samples, ReplicateBatch.concat([pair.twin for pair in pairs])), family)

    whole = regions[0][1]   # the whole window or sphere
    eff, eff_se = effective_intensity(samples.counts(whole), whole.measure)
    pmfs = [count_pmfs(samples.counts(region), target * region.measure)
            for _, region in regions]
    tvs = [tv_vs_poisson(p) for p in pmfs]
    best = tvs.index(max(tvs))
    # a region at or below the bound passes value <= bound + 3 stderr whatever
    # its stderr, so only the reported region and those above the bound are
    # bootstrapped, region k on stream (LANE_BOOTSTRAP, point_idx, k)
    boot = {k: count_tv_lower_bound(pmfs[k], len(samples),
                                    stream(seed, LANE_BOOTSTRAP, point_idx, k), name)
            for k, (name, _) in enumerate(regions) if k == best or tvs[k] > bound}
    tv_best, tv_estimates = boot[best], list(boot.values())

    return {
        "model": cfg.model, "c": cfg.c, "param": value, "reps": cfg.reps,
        "target_intensity": target,
        "eff_intensity": eff, "eff_stderr": eff_se,
        "w_distance": w_est.value, "w_stderr": w_est.stderr,
        "w_functional": w_est.regions,
        "tv_distance": tv_best.value, "tv_stderr": tv_best.stderr,
        "tv_region": tv_best.regions,
        "bound": bound,
        "bound_respected": int(_bound_respected([w_est] + tv_estimates, bound)),
        "_w_est": w_est, "_tv_estimates": tv_estimates,
    }


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   plots: bool = False) -> ExperimentResult:
    """Run the sweep, flushing one results row per point as it completes,
    then fit the convergence rate on the coupled distances w_distance."""
    t0 = time.perf_counter()
    rows = []

    def sweep():
        for i, value in enumerate(cfg.sweep):
            rows.append(run_sweep_point(cfg, i, value))
            yield rows[-1]

    if out_dir is None:
        list(sweep())
    else:
        os.makedirs(out_dir, exist_ok=True)
        # an earlier run's fit or plot must not outlive this run's results
        for name in ("fit.csv", "results.svg"):
            if os.path.exists(f"{out_dir}/{name}"):
                os.remove(f"{out_dir}/{name}")
        _write_csv(os.path.join(out_dir, "results.csv"), RESULTS_COLUMNS, sweep(),
                   SCHEMA_VERSION)
    fit, fit_error = None, ""
    try:
        fit = rate_regression([(row["param"], row["w_distance"]) for row in rows])
    except ValueError as exc:
        fit_error = str(exc)
    result = ExperimentResult(cfg, tuple(rows), fit, fit_error, time.perf_counter() - t0)
    if out_dir is not None and fit is not None:
        _write_csv(f"{out_dir}/fit.csv",
                   ["model", "c", "n_points", "slope", "intercept", "r_squared"],
                   [{"model": cfg.model, "c": cfg.c, "n_points": len(rows),
                     "slope": fit.slope, "intercept": fit.intercept,
                     "r_squared": fit.r_squared}])
    if out_dir is not None and plots:
        write_rate_plot(f"{out_dir}/results.svg", result)
    return result


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

def within_3se(lhs: float, rhs: float, stderr: float, one_sided: bool = False) -> bool:
    """The one pass rule, |lhs - rhs| <= 3 stderr or, one-sided, lhs <= rhs +
    3 stderr, as gap / 3 <= stderr: 3 * (t / 3) can round below t, and a
    threshold row (value, 0, t / 3) must pass at value == t."""
    gap = lhs - rhs if one_sided else abs(lhs - rhs)
    return gap / 3.0 <= stderr


class CheckRow(Record):
    name: str
    lhs: float
    rhs: float
    stderr: float
    seed: int
    one_sided: bool = False   # a bound-type check, suffixed _le

    @property
    def passed(self) -> bool:
        return within_3se(self.lhs, self.rhs, self.stderr, self.one_sided)


VALIDATION_COLUMNS = ["check_name", "lhs", "rhs", "stderr", "pass", "seed"]


def mc_row(name: str, values: np.ndarray, target, seed: int,
           one_sided: bool = False) -> CheckRow:
    """The row of a Monte Carlo check: the mean of per-replicate values against
    target, the mean of an independent sample or a constant, and the stderr
    of the difference (infinite for one value against a constant)."""
    if np.ndim(target):
        rhs = float(target.mean())
        se = math.sqrt(values.var(ddof=1) / values.size + target.var(ddof=1) / target.size)
    else:
        rhs = float(target)
        se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.inf
    return CheckRow(name, float(values.mean()), rhs, se, seed, one_sided)


def tv_rows(name: str, a: ReplicateBatch, b: ReplicateBatch, regions,
            seed: int) -> list[CheckRow]:
    """The threshold rows of two batches of one law, one per region: the
    empirical count TV against 0, with stderr threshold / 3 for the Monte
    Carlo noise floor 2/sqrt(reps).  name opens the bracket that each row
    closes with its region name: f"{name},{region name}]"."""
    threshold = 2.0 / math.sqrt(len(a))
    return [CheckRow(f"{name},{label}]",
                     empirical_count_tv(a.counts(region), b.counts(region)),
                     0.0, threshold / 3.0, seed)
            for label, region in regions]


# Every check section sizes itself from one replicate count, reps: Mecke and
# invariance draw max(2000, reps) replicates; the Glauber trajectory,
# stationarity, generator-null and contraction sections draw reps // 10,
# // 30, // 100 and // 30, floored at 1000, 500, 300 and 500.
DEFAULT_CHECK_REPS = 100_000


# The geometry of the Monte Carlo checks: the unit square, and the regions
# their TV rows count in, the window, its left half and the lower-left cell.
CHECK_WINDOW = Rect(0.0, 0.0, 1.0, 1.0)
CHECK_REGIONS = (("window", CHECK_WINDOW), ("left", Rect(0.0, 0.0, 0.5, 1.0)),
                 ("cell", Rect(0.0, 0.0, 0.5, 0.5)))
# The PPP intensity of the invariance and Glauber checks.  Their TV rows
# compare two exact samplers, and region means below ~1 keep the empirical-TV
# noise floor a safe factor under the 2/sqrt(reps) tolerance.
CHECK_LAM = 0.5


def check_mecke(seed: int, reps: int) -> list[CheckRow]:
    window = CHECK_WINDOW
    mfs, reps = mecke_functionals(window), max(2000, reps)
    # one draw per kind, shared by the whole family; each kind's left sides
    # become its rows, against their closed forms, before the next kind draws
    ppp = [mc_row(f"mecke_ppp[{mf.name}]", lhs, mf.oracle_ppp(3.0), seed) for mf, lhs in
           zip(mfs, mecke_check_ppp(mfs, 3.0, window, reps, stream(seed, LANE_CHECKS, 0, 1)))]
    bpp = [mc_row(f"mecke_bpp[{mf.name}]", lhs, mf.oracle_bpp(6), seed) for mf, lhs in
           zip(mfs, mecke_check_bpp(mfs, 6, window, reps, stream(seed, LANE_CHECKS, 0, 2)))]
    return [row for pair in zip(ppp, bpp) for row in pair]


def check_invariance(seed: int, reps: int) -> list[CheckRow]:
    rows = []
    for k, t in enumerate((0.25, 0.5, 0.75)):
        batches = invariance_check(CHECK_LAM, CHECK_WINDOW, t, max(2000, reps),
                                   stream(seed, LANE_CHECKS, point=16 + k))
        rows += tv_rows(f"invariance[t={t:g}", *batches, CHECK_REGIONS, seed)
    return rows


def check_glauber(seed: int, reps: int) -> list[CheckRow]:
    window = CHECK_WINDOW
    spec = GlauberSpec(window=window, lam=CHECK_LAM)
    omega0 = np.array([[0.3, 0.4], [0.7, 0.6]])
    functionals = glauber_functionals(window)
    rows = []
    # 1. trajectory vs thinning representation, at least 1000 replicates so
    # the TV noise floor sits under the 2/sqrt(reps) tolerance
    for k, t in enumerate((0.5, 2.0, 20.0)):
        batches = semigroup_trajectory_consistency(omega0, spec, t, max(1000, reps // 10),
                                                   stream(seed, LANE_CHECKS, point=32 + k))
        rows += tv_rows(f"glauber_traj[t={t:g}", *batches, CHECK_REGIONS[:2], seed)
    # 2. stationarity: E[P_t F(Phi)] = E[F(Phi)], one batch triple for all F
    rng = stream(seed, LANE_CHECKS, point=40)
    n = max(500, reps // 30)
    phi = ReplicateBatch.ppp(window, spec.lam, n, rng)
    evolved = semigroup_sample(phi, 1.0, spec, rng)
    fresh = ReplicateBatch.ppp(window, spec.lam, n, rng)
    for F in functionals:
        rows.append(mc_row(f"glauber_stationary[{F.name}]", F(evolved), F(fresh), seed))
    # 3. generator null at stationarity: E[L F(Phi)] = 0, one batch for all F
    rng = stream(seed, LANE_CHECKS, point=41)
    n = max(300, reps // 100)
    values = generator_apply(functionals, ReplicateBatch.ppp(window, spec.lam, n, rng), spec, rng)
    for F, vals in zip(functionals, values.T):
        rows.append(mc_row(f"glauber_generator_null[{F.name}]", vals, 0.0, seed))
    # 4. contraction: |P_t F(w+z) - P_t F(w)| <= e^-t, one base batch per t
    omega_c = np.array([[0.25, 0.4], [0.7, 0.6]])
    z = (0.6, 0.35)
    rng = stream(seed, LANE_CHECKS, point=42)
    for t in (0.5, 1.0, 2.0):
        diffs = contraction_estimate(functionals, omega_c, z, t, spec,
                                     max(500, reps // 30), rng)
        for F, d in zip(functionals, diffs):
            rows.append(mc_row(f"glauber_contraction_le[t={t:g},{F.name}]", d,
                               math.exp(-t), seed, one_sided=True))
    return rows


def check_coarea(seed: int) -> list[CheckRow]:
    # the half-plane square (ratio 1) and the origin disk (ratio 1/2);
    # tests/test_steinbound.py checks the other windows and angles
    return [CheckRow(name, coarea_check(win, 0.0).ratio, expect, 1e-6 / 3.0, seed)
            for name, win, expect in (
                ("coarea[square,one,theta=0]", Rect(0.0, 0.0, 1.0, 1.0), 1.0),
                ("coarea[disk,one,theta=0]", Disk((0.0, 0.0), 1.0), 0.5))]


def check_bounds(seed: int) -> list[CheckRow]:
    # the unit disk's quadrature G(K) against its closed form;
    # tests/test_steinbound.py checks other windows and both bounds
    window = Disk((0.0, 0.0), 1.0)
    return [CheckRow("bound[chord_sq_unit_disk]", chord_square_integral(window)[0],
                     window.closed_form_g(), 1e-8 / 3.0, seed)]


# every check group by name, in the order check all runs it; each lambda looks
# its check up at call time, so a wrapper installed in this module sees the call
CHECKS = {"mecke": lambda seed, reps: check_mecke(seed, reps),
          "invariance": lambda seed, reps: check_invariance(seed, reps),
          "glauber": lambda seed, reps: check_glauber(seed, reps),
          "coarea": lambda seed, reps: check_coarea(seed),
          "bounds": lambda seed, reps: check_bounds(seed)}
CHECK_GROUPS = tuple(CHECKS)
# peak bytes a group holds per max(2000, reps), after a first call: tracemalloc reads
# 256 and 253 (mecke), 136 and 136 (invariance), 62 and 37 (glauber) at reps 2e4 and
# 2e5; the others draw nothing
CHECK_BYTES_PER_REPLICATE = {"mecke": 400, "invariance": 200, "glauber": 100}


def check_groups(which: str, reps: int) -> list:
    """The groups of CHECK_GROUPS that which names, one or all; raises
    ConfigError unless reps >= 1 and the largest fits in physical memory."""
    if which != "all" and which not in CHECK_GROUPS:
        raise ValueError(f"unknown check group {which!r}; choose from "
                         f"{', '.join(CHECK_GROUPS)} or all")
    if reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {reps}")
    groups = [name for name in CHECK_GROUPS if which in ("all", name)]
    n = max(2000, reps)
    try:
        check_memory(n * max(CHECK_BYTES_PER_REPLICATE.get(name, 0) for name in groups),
                     f"{n} check replicates")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return groups


def run_validation_suite(seed: int, reps: int = DEFAULT_CHECK_REPS,
                         which: str = "all") -> list[CheckRow]:
    """Run check_groups(which, reps) in the order of CHECK_GROUPS, each sized
    from reps; individual failures are recorded and the suite continues."""
    return [row for name in check_groups(which, reps) for row in CHECKS[name](seed, reps)]


def write_validation_csv(path: str, rows: list[CheckRow]):
    _write_csv(path, VALIDATION_COLUMNS,
               [{"check_name": r.name, "lhs": r.lhs, "rhs": r.rhs,
                 "stderr": r.stderr, "pass": int(r.passed), "seed": r.seed}
                for r in rows])


def format_check_table(rows: list[CheckRow]) -> str:
    width = max(len(r.name) for r in rows) + 2
    lines = [f"{'check':<{width}}{'estimate':>14}{'target':>14}{'stderr':>12}  status"]
    for r in rows:
        lines.append(f"{r.name:<{width}}{r.lhs:>14.6g}{r.rhs:>14.6g}"
                     f"{r.stderr:>12.3g}  {'pass' if r.passed else 'FAIL'}")
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"-- {len(rows) - n_fail}/{len(rows)} checks passed --")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG rate plot (log-log distances with the theoretical bound line)
# ---------------------------------------------------------------------------

PLOT_SIZE = (480, 360)


def write_rate_plot(path: str, result: ExperimentResult):
    rows = result.rows
    xs = [row["param"] for row in rows]
    ys = [max(row["w_distance"], 1e-12) for row in rows]
    bs = [row["bound"] for row in rows]
    w, h = PLOT_SIZE
    margin = 50.0
    lx = [math.log10(v) for v in xs]
    ly = [math.log10(v) for v in ys + bs]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def px(v):
        return margin + (math.log10(v) - x0) / (x1 - x0) * (w - 2 * margin)

    def py(v):
        return h - margin - (math.log10(max(v, 1e-12)) - y0) / (y1 - y0) * (h - 2 * margin)

    def poly(vals, color, dash=""):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in vals)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{pts}"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<rect x="{margin}" y="{margin}" width="{w - 2 * margin}" '
             f'height="{h - 2 * margin}" fill="none" stroke="#999"/>']
    parts.append(poly(list(zip(xs, bs)), "#d62728", dash="5,3"))
    parts.append(poly(list(zip(xs, ys)), "#1f77b4"))
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f77b4"/>')
    label = f"{result.config.model}: distance (blue) vs bound (red), log-log"
    if result.fit is not None:
        label += f"; slope={result.fit.slope:.3f}, r2={result.fit.r_squared:.3f}"
    parts.append(f'<text x="{margin}" y="{margin - 12}" font-size="12" '
                 f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
