"""Pass counts of acceptance criteria 2, 3 and 4, or false alarms of
`check all`, over a range of seeds.

By default, runs the two acceptance sweeps at every seed of the range and
prints, per criterion, how many seeds pass, the mean and standard deviation
of the rate-fit slope, the seeds without a fit and the failing seeds.  The
sweeps and pass rules come from tests/acceptance_criteria.py, which
tests/test_acceptance.py applies at one seed; its wall-time budgets are left
out here: they do not depend on the seed.  With --digest, it prints instead
one sha256 per seed over both sweeps' result rows at --reps (every
results.csv column, floats at repr precision).

With --validation, runs the validation suite (`check all`) at every seed
instead and prints how many seeds fail it, the failing seeds, and the
failures per row (a row's name up to its first bracket, such as mecke_ppp).
On correct code every failure is a false alarm.  With --digest as well, it
prints one sha256 per seed over every row's name, lhs, rhs, stderr and pass
flag (floats at repr precision).

Either digest lets two versions of the code be checked for identical rows
over a seed range with one diff of their outputs.

pytest does not collect this file (its name does not start with test_).

    PYTHONPATH=src python tests/seed_sweep.py --seeds 0-99
    PYTHONPATH=src python tests/seed_sweep.py --digest --seeds 0-19 --reps 1000
    PYTHONPATH=src python tests/seed_sweep.py --validation --seeds 0-199
    PYTHONPATH=src python tests/seed_sweep.py --validation --digest --seeds 0-19 --reps 20000
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
from collections import Counter

from acceptance_criteria import ACCEPT_REPS, SWEEPS, criterion_2, criterion_3, criterion_4
from coxsim.harness import (DEFAULT_CHECK_REPS, MIN_SWEEP_REPS, RESULTS_COLUMNS,
                            run_experiment, run_validation_suite)

CRITERIA = {
    "2 (satellites, bound)": ("satellites", criterion_2),
    "3 (satellites, rate)": ("satellites", criterion_3),
    "4 (cox-line)": ("cox-line", criterion_4),
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


def print_digest(seed: int, lines):
    print(f"seed {seed}: {hashlib.sha256(''.join(lines).encode()).hexdigest()}")


def validation_digests(seeds: range, reps: int):
    """Print one sha256 per seed over the rows of `check all`."""
    for seed in seeds:
        print_digest(seed, (f"{r.name},{r.lhs!r},{r.rhs!r},{r.stderr!r},{int(r.passed)}\n"
                            for r in run_validation_suite(seed, reps)))


def sweep_digests(seeds: range, reps: int):
    """Print one sha256 per seed over the result rows of both acceptance sweeps."""
    for seed in seeds:
        print_digest(seed, (",".join(repr(row[c]) for c in RESULTS_COLUMNS) + "\n"
                            for config in SWEEPS.values()
                            for row in run_experiment(config(seed, reps)).rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-99"),
                        help="inclusive range, e.g. 0-99")
    parser.add_argument("--validation", action="store_true",
                        help="count check-all false alarms instead of criteria 2-4")
    parser.add_argument("--digest", action="store_true",
                        help="print a sha256 of each seed's rows instead")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"replicates per sweep point (default {ACCEPT_REPS}, at least "
                             f"{MIN_SWEEP_REPS}), or with --validation the check size "
                             f"(default {DEFAULT_CHECK_REPS}, at least 1)")
    args = parser.parse_args(argv)
    floor = 1 if args.validation else MIN_SWEEP_REPS
    if args.reps is None:
        args.reps = DEFAULT_CHECK_REPS if args.validation else ACCEPT_REPS
    elif args.reps < floor:
        parser.error(f"--reps must be at least {floor}"
                     f"{' with --validation' if args.validation else ' per sweep point'}, "
                     f"got {args.reps}")
    if args.validation:
        sweep = validation_digests if args.digest else validation_sweep
        sweep(args.seeds, args.reps)
        return
    if args.digest:
        sweep_digests(args.seeds, args.reps)
        return
    results = {model: [run_experiment(config(seed, args.reps)) for seed in args.seeds]
               for model, config in SWEEPS.items()}
    n = len(args.seeds)
    for name, (model, passes) in CRITERIA.items():
        runs = list(zip(args.seeds, results[model]))
        failed = [seed for seed, result in runs if not passes(result)]
        no_fit = [seed for seed, result in runs if result.fit is None]
        slopes = [result.fit.slope for _, result in runs if result.fit is not None]
        sd = statistics.stdev(slopes) if len(slopes) > 1 else float("nan")
        mean = statistics.fmean(slopes) if slopes else float("nan")
        print(f"criterion {name}: {n - len(failed)}/{n} seeds pass; "
              f"slope mean {mean:.3f} sd {sd:.3f}; no fit: {no_fit or 'none'}; "
              f"failing: {failed or 'none'}")

if __name__ == "__main__":
    main()
