"""The two acceptance sweeps and the pass rules of criteria 2, 3 and 4, in
one place: tests/test_acceptance.py applies them at one seed, with its
wall-time budgets, and tests/seed_sweep.py counts the seeds that pass them.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import math

from coxsim.geometry import Disk
from coxsim.harness import ExperimentConfig

SLOPE_BAND = (-1.3, -0.7)
R2_FLOOR = 0.9
ACCEPT_REPS = 10_000   # replicates per sweep point

# the acceptance sweeps at a seed
SWEEPS = {
    "satellites": lambda seed, reps=ACCEPT_REPS: ExperimentConfig(
        "satellites", 2.0, (10, 20, 40, 80, 160), reps=reps, seed=seed),
    "cox-line": lambda seed, reps=ACCEPT_REPS: ExperimentConfig(
        "cox-line", 1.0, (5, 10, 20, 40, 80), reps=reps, seed=seed,
        window=Disk((0.0, 0.0), 1.0)),
}


def estimates(row) -> list:
    """The coupled Wasserstein estimate and the bootstrapped TV estimates of a row."""
    return [row["_w_est"]] + row["_tv_estimates"]


def within(row) -> bool:
    """Every estimate of the row within bound + 3 stderr."""
    return all(e.value <= row["bound"] + 3.0 * e.stderr for e in estimates(row))


def worst_margin(result) -> float:
    """The least bound + 3 stderr - value over every estimate of the sweep."""
    return min(row["bound"] + 3.0 * e.stderr - e.value
               for row in result.rows for e in estimates(row))


def in_band(fit) -> bool:
    return fit is not None and SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]


def criterion_2(result) -> bool:
    """Every satellite bound the closed form 2 c^2 / n, every estimate within
    bound + 3 stderr, and bound_respected."""
    return all(math.isclose(row["bound"], 2.0 * 4.0 / row["param"], rel_tol=1e-6)
               and within(row) and row["bound_respected"] for row in result.rows)


def criterion_3(result) -> bool:
    """Satellite slope in the band with r^2 >= R2_FLOOR."""
    return in_band(result.fit) and result.fit.r_squared >= R2_FLOOR


def criterion_4(result) -> bool:
    """Every cox-line bound the closed form (16/3) / lambda_n on the unit disk,
    every estimate within bound + 3 stderr, slope in the band and eff_intensity
    within 0.05 of c/2."""
    rows = result.rows
    bounds = all(math.isclose(row["bound"], 16.0 / 3.0 / row["param"], rel_tol=1e-7)
                 for row in rows)
    effs = all(abs(row["eff_intensity"] - 0.5) < 0.05 for row in rows)
    return bounds and all(map(within, rows)) and effs and in_band(result.fit)
