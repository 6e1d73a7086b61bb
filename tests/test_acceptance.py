"""Acceptance suite: runs every acceptance criterion at its stated tolerance
and prints one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavy sweeps (criteria 2-4) run once per session and are
shared between the bound and rate checks.
"""

import math
import time

import pytest

from coxsim.cli import main
from coxsim.geometry import Disk
from coxsim.harness import (ExperimentConfig, check_mecke, run_experiment,
                            run_validation_suite)
from coxsim.steinbound import chord_square_integral

SEED = 0

# Mecke and invariance at 1e5 replicates, the Glauber trajectories at 1e4
ACCEPT_REPS = 100_000


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def satellite_result():
    cfg = ExperimentConfig("satellites", 2.0, (10, 20, 40, 80, 160),
                           reps=10_000, seed=SEED)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    res.wall_seconds = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def cox_result():
    cfg = ExperimentConfig("cox-line", 1.0, (5, 10, 20, 40, 80),
                           reps=10_000, seed=SEED, window=Disk((0.0, 0.0), 1.0))
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    res.wall_seconds = time.perf_counter() - t0
    return res


def test_criterion_1_disk_geometric_constant():
    t0 = time.perf_counter()
    value, err = chord_square_integral(Disk((0.0, 0.0), 1.0))
    elapsed = time.perf_counter() - t0
    gap = abs(value - 16.0 / 3.0)
    ok = gap < 1e-8 and elapsed < 1.0
    assert report("1 (disk geometric constant)", ok,
                  f"|G - 16/3| = {gap:.3g} (tol 1e-8), {elapsed:.3f}s (< 1s)")


def test_criterion_2_satellite_bound_respected(satellite_result):
    worst = math.inf
    ok = True
    for row in satellite_result.rows:
        bound = row["bound"]
        assert bound == pytest.approx(2.0 * 4.0 / row["param"])
        estimates = [row["_w_est"]] + row["_tv_estimates"]
        for est in estimates:
            margin = bound + 3.0 * est.stderr - est.value
            worst = min(worst, margin)
            ok &= est.value <= bound + 3.0 * est.stderr
        ok &= bool(row["bound_respected"])
    ok &= satellite_result.wall_seconds < 300.0
    assert report("2 (Theorem-10 bound respected)", ok,
                  f"worst margin {worst:.4f} >= 0 across "
                  f"{len(satellite_result.rows)} sweep points, "
                  f"{satellite_result.wall_seconds:.0f}s (< 300s)")


def test_criterion_3_satellite_rate(satellite_result):
    fit = satellite_result.fit
    ok = fit is not None and -1.3 <= fit.slope <= -0.7 and fit.r_squared >= 0.9
    detail = ("no fit: " + satellite_result.fit_error if fit is None else
              f"slope {fit.slope:.3f} in [-1.3,-0.7], r2 {fit.r_squared:.3f} >= 0.9")
    assert report("3 (satellite 1/n rate)", ok, detail)


def test_criterion_4_cox_bound_and_rate(cox_result):
    geom = 16.0 / 3.0
    worst = math.inf
    ok = True
    for row in cox_result.rows:
        bound = geom / row["param"]
        assert row["bound"] == pytest.approx(bound, rel=1e-7)
        estimates = [row["_w_est"]] + row["_tv_estimates"]
        for est in estimates:
            margin = bound + 3.0 * est.stderr - est.value
            worst = min(worst, margin)
            ok &= est.value <= bound + 3.0 * est.stderr
    fit = cox_result.fit
    ok &= fit is not None and -1.3 <= fit.slope <= -0.7
    ok &= cox_result.wall_seconds < 600.0
    # the c-vs-c/2 intensity convention is reported, not hidden: the rows
    # carry the nominal c, the closed-form target c/2 and the intensity
    # measured from the sweep's own samples
    effs = [row["eff_intensity"] for row in cox_result.rows]
    ok &= all(abs(e - 0.5) < 0.05 for e in effs)
    slope_txt = "none" if fit is None else f"{fit.slope:.3f}"
    assert report("4 (Theorem-9 bound with matched target)", ok,
                  f"worst margin {worst:.4f}, slope {slope_txt}, "
                  f"eff intensity {effs[-1]:.4f} vs c=1 (c/2 convention "
                  f"reported), {cox_result.wall_seconds:.0f}s (< 600s)")


def test_criterion_5_campbell_mecke():
    rows = check_mecke(SEED, ACCEPT_REPS)
    bad = [r for r in rows if not r.passed]
    oracle_rows = [r for r in rows if r.name.endswith("_oracle")]
    ok = not bad and len(oracle_rows) == 8
    assert report("5 (Campbell-Mecke identities)", ok,
                  f"{len(rows)} checks at reps=1e5, "
                  f"{len(oracle_rows)} analytic-oracle matches, failures: "
                  f"{[r.name for r in bad] or 'none'}")


def test_criterion_6_thinning_invariance():
    rows = run_validation_suite(SEED, ACCEPT_REPS, which="invariance")
    bad = [r for r in rows if not r.passed]
    worst = max(r.lhs for r in rows)
    ok = not bad and len(rows) == 9
    assert report("6 (thinning invariance)", ok,
                  f"9 region/t checks at reps=1e5, worst TV {worst:.5f} vs "
                  f"threshold {2.0 / math.sqrt(ACCEPT_REPS):.5f}")


def test_criterion_7_glauber_consistency():
    rows = run_validation_suite(SEED, ACCEPT_REPS, which="glauber")
    bad = [r for r in rows if not r.passed]
    traj = [r for r in rows if r.name.startswith("glauber_traj")]
    contraction = [r for r in rows if r.name.startswith("glauber_contraction")]
    ok = not bad and len(traj) == 6 and len(contraction) == 21
    assert report("7 (Glauber consistency)", ok,
                  f"{len(traj)} trajectory-TV rows (reps=1e4), stationarity + "
                  f"generator-null within 3 stderr, {len(contraction)} "
                  f"contraction rows <= e^-t + 3 stderr; failures: "
                  f"{[r.name for r in bad] or 'none'}")


def test_criterion_8_coarea_ratios():
    rows = run_validation_suite(SEED, ACCEPT_REPS, which="coarea")
    square = next(r for r in rows if "square,one" in r.name)
    disk = next(r for r in rows if "disk,one" in r.name)
    ok = (abs(square.lhs - 1.0) < 1e-6 and abs(disk.lhs - 0.5) < 1e-6
          and all(r.passed for r in rows))
    assert report("8 (coarea ratios)", ok,
                  f"half-plane square ratio {square.lhs:.9f} (=1 within 1e-6), "
                  f"origin disk ratio {disk.lhs:.9f} (=1/2 within 1e-6)")


def test_criterion_9_determinism(tmp_path):
    args = ["check", "all", "--seed", str(SEED), "--reps", "4000"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / "validation.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "validation.csv").read_bytes()
    ok = bytes_a == bytes_b and code_a == code_b == 0
    assert report("9 (determinism)", ok,
                  f"two `check all` runs, seed {SEED}: byte-identical CSVs "
                  f"({len(bytes_a)} bytes), exit codes {code_a}/{code_b}")
