"""Command-line interface.

Subcommands: simulate, bound and experiment per model of MODELS, and check
per group of CHECKS or all; each sets run, the handler main calls.  Exit
codes: 0 success, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coxmodels import MODELS, Model
from .harness import (CHECK_GROUPS, DEFAULT_CHECK_REPS, LANE_SAMPLES, ConfigError,
                      ExperimentConfig, check_groups, check_seed, config_from_ini, csv_header,
                      csv_line, format_check_table, parse_sweep, parse_window, run_experiment,
                      run_validation_suite, stream, write_validation_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coxsim",
                                  description="Cox point process simulation and "
                                              "verification toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw one realization of a model")
    sim.set_defaults(run=_cmd_simulate)
    sim_sub = sim.add_subparsers(dest="model", required=True)
    bnd = sub.add_parser("bound", help="evaluate the theoretical bound")
    bnd.set_defaults(run=_cmd_bound)
    bnd_sub = bnd.add_subparsers(dest="model", required=True)
    exp = sub.add_parser("experiment", help="run a convergence-rate sweep")
    exp.set_defaults(run=_cmd_experiment)
    exp_sub = exp.add_subparsers(dest="kind", required=True)
    for name, model in MODELS.items():
        p = sim_sub.add_parser(name)
        p.add_argument("--c", type=float, default=model.c)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        _add_size_flags(p, model, model.help)
        p = bnd_sub.add_parser(name)
        p.add_argument("--c", type=float, default=model.c)
        _add_size_flags(p, model)
        p.add_argument("--out", default=None, help="append the CSV row to this file")
        p = exp_sub.add_parser(model.experiment)
        p.set_defaults(model=name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--sweep", type=parse_sweep, default=None,
                       help="comma/space separated increasing values")
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--plots", action="store_true")
        if model.window is not None:
            p.add_argument("--window", default=None)

    chk = sub.add_parser("check", help="run validation checks")
    chk.set_defaults(run=_cmd_check)
    chk.add_argument("which", choices=(*CHECK_GROUPS, "all"))
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--reps", type=int, default=DEFAULT_CHECK_REPS,
                     help="base replicate count; each check section is sized "
                          "from it (default: the acceptance size)")
    chk.add_argument("--out", default=None, help="output directory")
    return top


def _add_size_flags(p, model: Model, help=None):
    """The sweep parameter's flag, and --window if the model has one."""
    p.add_argument(*model.flags, type=model.type, required=True, help=help)
    if model.window is not None:
        p.add_argument("--window")


def _model_args(args, reps: int = 0):
    """(model, params, window) for a run holding reps replicates; bad values are config errors."""
    model = MODELS[args.model]
    text = getattr(args, "window", None)
    window = model.window if text is None else parse_window(text)
    try:
        return model, model.finite_params(args.c, getattr(args, model.dest), window, reps), window
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    rng = stream(args.seed, LANE_SAMPLES)
    model, params, window = _model_args(args, 1)
    lines, pair = model.sample(params, window, 1, rng)
    points = pair.model.points
    summary = {"model": model.name, "c": args.c, model.key: getattr(args, model.dest),
               "mu_n": params.mu_n, "n_points": len(points), "seed": args.seed}
    if window is not None:   # the planar model reports its window and its lines
        summary.update(window=window.describe(), n_lines=int(lines.shape[0]))
    header = ("x", "y", "z")[:points.shape[1]]
    csv_text = "".join(map(csv_line, [header, *points]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "points.csv"), "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}/points.csv ({summary['n_points']} points)")
    else:
        sys.stdout.write(csv_text)
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


BOUND_COLUMNS = ["model", "c", "param", "window", "bound"]


def _cmd_bound(args) -> int:
    model, params, window = _model_args(args)
    value = model.bound(params, window)
    # param is lambda_n, or n as a float, printed like any float column
    row = csv_line([model.name, params.c, params.lambda_n, model.describe(window), value])
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write(csv_header(BOUND_COLUMNS))
            fh.write(row)
    print(f"{model.name} bound with c={params.c:g}, "
          f"{model.param_text.format(getattr(args, model.dest))}: {value:.8g}")
    sys.stdout.write(csv_line(BOUND_COLUMNS) + row)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    model = MODELS[args.model]
    # CLI flags override config file values, which override the defaults
    window = getattr(args, "window", None)
    flags = {"model": model.name, "c": args.c, "sweep": args.sweep, "reps": args.reps,
             "seed": args.seed, "window": None if window is None else parse_window(window)}
    flags = {k: v for k, v in flags.items() if v is not None}
    if args.config:
        cfg, extras = config_from_ini(args.config, flags)
    else:
        cfg, extras = ExperimentConfig(**flags), {"out": None, "plots": False}
    out_dir = args.out or extras["out"]
    plots = args.plots or extras["plots"]
    if plots and not out_dir:
        raise ConfigError("plots need an output directory: give --out or the INI out key")
    result = run_experiment(cfg, out_dir=out_dir, plots=plots)
    for row in result.rows:
        print(f"param={row['param']:g}: W>={row['w_distance']:.5g} "
              f"(se {row['w_stderr']:.2g}, {row['w_functional']}), "
              f"TV>={row['tv_distance']:.5g} ({row['tv_region']}), "
              f"bound={row['bound']:.5g}, respected={bool(row['bound_respected'])}")
    if result.fit is not None:
        print(f"rate fit: slope={result.fit.slope:.4f} "
              f"intercept={result.fit.intercept:.4f} r2={result.fit.r_squared:.4f}")
    else:
        print(f"rate fit unavailable: {result.fit_error}")
    if model.note and result.rows:
        print(model.note.format(**result.rows[-1]))
    print(f"wall time {result.wall_seconds:.1f}s"
          + (f"; outputs in {out_dir}" if out_dir else ""))
    return EXIT_OK


def _cmd_check(args) -> int:
    check_groups(args.which, args.reps)   # config errors before --out is made
    check_seed(args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    rows = run_validation_suite(args.seed, args.reps, which=args.which)
    print(format_check_table(rows))
    if args.out:
        path = os.path.join(args.out, "validation.csv")
        write_validation_csv(path, rows)
        print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the only paths coxsim opens are its outputs, --out or the INI out key
        if exc.filename is None:
            raise
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
