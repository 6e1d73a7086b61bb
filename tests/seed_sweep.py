"""Pass counts of acceptance criteria 3 and 4, or false alarms of
`check all`, over a range of seeds.

By default, runs the two acceptance sweeps of tests/test_acceptance.py at
every seed of the range and prints, per criterion, how many seeds pass, the
mean and standard deviation of the rate-fit slope, the seeds without a fit
and the failing seeds.  The wall-time budgets are left out: they do not
depend on the seed.

With --validation, runs the validation suite (`check all`) at every seed
instead and prints how many seeds fail it, the failing seeds, and the
failures per row (a row's name up to its first bracket, such as mecke_ppp).
On correct code every failure is a false alarm.

pytest does not collect this file (its name does not start with test_).

    PYTHONPATH=src python tests/seed_sweep.py --seeds 0-99
    PYTHONPATH=src python tests/seed_sweep.py --validation --seeds 0-199
"""

from __future__ import annotations

import argparse
import statistics
from collections import Counter

from coxsim.geometry import Disk
from coxsim.harness import (DEFAULT_CHECK_REPS, ExperimentConfig, run_experiment,
                            run_validation_suite)

SLOPE_BAND = (-1.3, -0.7)


def _in_band(fit) -> bool:
    return fit is not None and SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]


def criterion_3(result) -> bool:
    """Satellite slope in the band with r^2 >= 0.9."""
    return _in_band(result.fit) and result.fit.r_squared >= 0.9


def criterion_4(result) -> bool:
    """Every cox-line estimate within bound + 3 stderr, slope in the band and
    eff_intensity within 0.05 of c/2."""
    within = all(e.value <= row["bound"] + 3.0 * e.stderr
                 for row in result.rows
                 for e in [row["_w_est"]] + row["_tv_estimates"])
    effs = all(abs(row["eff_intensity"] - 0.5) < 0.05 for row in result.rows)
    return within and effs and _in_band(result.fit)


CRITERIA = {
    "3 (satellites)": (lambda seed, reps: ExperimentConfig(
        "satellites", 2.0, (10, 20, 40, 80, 160), reps=reps, seed=seed), criterion_3),
    "4 (cox-line)": (lambda seed, reps: ExperimentConfig(
        "cox-line", 1.0, (5, 10, 20, 40, 80), reps=reps, seed=seed,
        window=Disk((0.0, 0.0), 1.0)), criterion_4),
}


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def validation_sweep(seeds: range, reps: int):
    """Print the seeds on which `check all` fails and the failures per row."""
    failed, per_row = [], Counter()
    for seed in seeds:
        bad = [r.name.split("[")[0] for r in run_validation_suite(seed, reps)
               if not r.passed]
        if bad:
            failed.append(seed)
            per_row.update(bad)
    print(f"check all at reps {reps}: {len(failed)}/{len(seeds)} seeds fail, "
          f"{sum(per_row.values())} rows; failing: {failed or 'none'}")
    for row, count in per_row.most_common():
        print(f"  {row}: {count}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-99"),
                        help="inclusive range, e.g. 0-99")
    parser.add_argument("--validation", action="store_true",
                        help="count check-all false alarms instead of criteria 3 and 4")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"replicates per sweep point (default 10000), or with "
                             f"--validation the check size (default {DEFAULT_CHECK_REPS})")
    args = parser.parse_args(argv)
    if args.validation:
        validation_sweep(args.seeds, args.reps or DEFAULT_CHECK_REPS)
        return
    args.reps = args.reps or 10_000
    for name, (config, passes) in CRITERIA.items():
        failed, no_fit, slopes = [], [], []
        for seed in args.seeds:
            result = run_experiment(config(seed, args.reps))
            if result.fit is None:
                no_fit.append(seed)
            else:
                slopes.append(result.fit.slope)
            if not passes(result):
                failed.append(seed)
        n = len(args.seeds)
        sd = statistics.stdev(slopes) if len(slopes) > 1 else float("nan")
        mean = statistics.fmean(slopes) if slopes else float("nan")
        print(f"criterion {name}: {n - len(failed)}/{n} seeds pass; "
              f"slope mean {mean:.3f} sd {sd:.3f}; no fit: {no_fit or 'none'}; "
              f"failing: {failed or 'none'}")


if __name__ == "__main__":
    main()
