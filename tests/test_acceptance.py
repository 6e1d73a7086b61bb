"""Acceptance suite: runs every acceptance criterion at its stated tolerance
and prints one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavy sweeps (criteria 2-4) run once per session and are
shared between the bound and rate checks.
"""

import math
import time

import pytest

from acceptance_criteria import (R2_FLOOR, SLOPE_BAND, SWEEPS, criterion_2, criterion_3,
                                 criterion_4, worst_margin)
from coxsim.cli import main
from coxsim.diagnostics import mecke_functionals
from coxsim.geometry import Disk
from coxsim.harness import CHECK_WINDOW, check_mecke, run_experiment, run_validation_suite
from coxsim.steinbound import chord_square_integral

SEED = 0

# Mecke and invariance at 1e5 replicates, the Glauber trajectories at 1e4
ACCEPT_REPS = 100_000


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def timed_sweep(model: str):
    t0 = time.perf_counter()
    res = run_experiment(SWEEPS[model](SEED))
    return res.replace(wall_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def satellite_result():
    return timed_sweep("satellites")


@pytest.fixture(scope="module")
def cox_result():
    return timed_sweep("cox-line")


def test_criterion_1_disk_geometric_constant():
    t0 = time.perf_counter()
    value, err = chord_square_integral(Disk((0.0, 0.0), 1.0))
    elapsed = time.perf_counter() - t0
    gap = abs(value - 16.0 / 3.0)
    ok = gap < 1e-8 and elapsed < 1.0
    assert report("1 (disk geometric constant)", ok,
                  f"|G - 16/3| = {gap:.3g} (tol 1e-8), {elapsed:.3f}s (< 1s)")


def test_criterion_2_satellite_bound_respected(satellite_result):
    ok = criterion_2(satellite_result) and satellite_result.wall_seconds < 300.0
    assert report("2 (Theorem-10 bound respected)", ok,
                  f"worst margin {worst_margin(satellite_result):.4f} >= 0 across "
                  f"{len(satellite_result.rows)} sweep points, "
                  f"{satellite_result.wall_seconds:.0f}s (< 300s)")


def test_criterion_3_satellite_rate(satellite_result):
    fit = satellite_result.fit
    detail = ("no fit: " + satellite_result.fit_error if fit is None else
              f"slope {fit.slope:.3f} in [{SLOPE_BAND[0]},{SLOPE_BAND[1]}], "
              f"r2 {fit.r_squared:.3f} >= {R2_FLOOR}")
    assert report("3 (satellite 1/n rate)", criterion_3(satellite_result), detail)


def test_criterion_4_cox_bound_and_rate(cox_result):
    ok = criterion_4(cox_result) and cox_result.wall_seconds < 600.0
    # the c-vs-c/2 intensity convention is reported, not hidden: the rows
    # carry the nominal c, the closed-form target c/2 and the intensity
    # measured from the sweep's own samples
    fit = cox_result.fit
    slope_txt = "none" if fit is None else f"{fit.slope:.3f}"
    assert report("4 (Theorem-9 bound with matched target)", ok,
                  f"worst margin {worst_margin(cox_result):.4f}, slope {slope_txt}, "
                  f"eff intensity {cox_result.rows[-1]['eff_intensity']:.4f} vs c=1 "
                  f"(c/2 convention reported), {cox_result.wall_seconds:.0f}s (< 600s)")


def test_criterion_5_campbell_mecke():
    rows = check_mecke(SEED, ACCEPT_REPS)
    bad = [r for r in rows if not r.passed]
    # every row's right side is its functional's closed form, at check_mecke's
    # PPP intensity 3 and BPP size 6
    closed_forms = {f"mecke_{kind}[{mf.name}]": value
                    for mf in mecke_functionals(CHECK_WINDOW)
                    for kind, value in (("ppp", mf.oracle_ppp(3.0)), ("bpp", mf.oracle_bpp(6)))}
    ok = not bad and {r.name: r.rhs for r in rows} == closed_forms and len(rows) == 10
    worst = max(abs(r.lhs - r.rhs) / r.stderr for r in rows if r.stderr > 0)
    assert report("5 (Campbell-Mecke identities)", ok,
                  f"{len(rows)} checks at reps=1e5 against closed forms, "
                  f"max |z| {worst:.2f}, failures: {[r.name for r in bad] or 'none'}")


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
