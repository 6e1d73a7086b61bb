"""Command-line interface.

Subcommands: simulate cox-line|satellites, bound cox-line|satellites,
experiment converge-cox|converge-sat, check mecke|invariance|glauber|
coarea|bounds|all.  Exit codes: 0 success, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .coxmodels import sample_cox_line, sample_satellites_with_twin
from .harness import (CHECK_GROUPS, DEFAULT_CHECK_REPS, MODEL_DEFAULTS, ConfigError,
                      ExperimentConfig, config_from_ini, csv_header, csv_line,
                      format_check_table, parse_sweep, parse_window, run_experiment,
                      run_validation_suite, write_validation_csv)
from .pointprocess import ModelParams, RngStream
from .steinbound import cox_bound, satellite_bound

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coxsim",
                                  description="Cox point process simulation and "
                                              "verification toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw one realization of a model")
    sim_sub = sim.add_subparsers(dest="model", required=True)
    for name in ("cox-line", "satellites"):
        p = sim_sub.add_parser(name)
        p.add_argument("--c", type=float, default=MODEL_DEFAULTS[name][0])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        if name == "cox-line":
            p.add_argument("--lam", "--lambda", dest="lam", type=float,
                           required=True, help="line intensity lambda_n")
            p.add_argument("--window", default="disk:0,0,1")
        else:
            p.add_argument("--n", type=int, required=True, help="orbit count")

    bnd = sub.add_parser("bound", help="evaluate the theoretical bound")
    bnd_sub = bnd.add_subparsers(dest="model", required=True)
    p = bnd_sub.add_parser("cox-line")
    p.add_argument("--c", type=float, default=MODEL_DEFAULTS["cox-line"][0])
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--window", default="disk:0,0,1")
    p.add_argument("--out", default=None, help="append the CSV row to this file")
    p = bnd_sub.add_parser("satellites")
    p.add_argument("--c", type=float, default=MODEL_DEFAULTS["satellites"][0])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="run a convergence-rate sweep")
    exp_sub = exp.add_subparsers(dest="kind", required=True)
    for kind in ("converge-cox", "converge-sat"):
        p = exp_sub.add_parser(kind)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--sweep", type=parse_sweep, default=None,
                       help="comma/space separated increasing values")
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--plots", action="store_true")
        if kind == "converge-cox":
            p.add_argument("--window", default=None)

    chk = sub.add_parser("check", help="run validation checks")
    chk.add_argument("which", choices=(*CHECK_GROUPS, "all"))
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--reps", type=int, default=DEFAULT_CHECK_REPS,
                     help="base replicate count; each check section is sized "
                          "from it (default: the acceptance size)")
    chk.add_argument("--out", default=None, help="output directory")
    return top


def _model_params(args) -> ModelParams:
    """Model parameters from the flags; bad values are config errors."""
    try:
        if args.model == "cox-line":
            return ModelParams.planar(args.c, args.lam)
        return ModelParams.spherical(args.c, args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    rng = RngStream(args.seed, 0).generator()
    params = _model_params(args)
    if args.model == "cox-line":
        window = parse_window(args.window)
        sample = sample_cox_line(params, window, rng)
        summary = {"model": "cox-line", "c": args.c, "lambda_n": args.lam,
                   "mu_n": params.mu_n, "window": window.describe(),
                   "n_lines": int(sample.lines.shape[0]),
                   "n_points": len(sample.points), "seed": args.seed}
    else:
        sample, _twin = sample_satellites_with_twin(params, rng)
        summary = {"model": "satellites", "c": args.c, "n": args.n,
                   "mu_n": params.mu_n, "n_points": len(sample.points),
                   "seed": args.seed}
    header = ("x", "y", "z")[:sample.points.shape[1]]
    csv_text = "".join(map(csv_line, [header, *sample.points]))
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
    params = _model_params(args)
    if args.model == "cox-line":
        window = parse_window(args.window)
        value, window_desc = cox_bound(params, window), window.describe()
        param_desc = f"lambda_n={args.lam:g}"
    else:
        value, window_desc = satellite_bound(params), "sphere"
        param_desc = f"n={args.n}"
    # param is lambda_n, or n as a float, printed like any float column
    row = csv_line([args.model, params.c, params.lambda_n, window_desc, value])
    print(f"{args.model} bound with c={params.c:g}, {param_desc}: {value:.8g}")
    sys.stdout.write(csv_line(BOUND_COLUMNS) + row)
    if args.out:
        new = not os.path.exists(args.out)
        with open(args.out, "a", encoding="utf-8") as fh:
            if new:
                fh.write(csv_header(BOUND_COLUMNS))
            fh.write(row)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    model = "cox-line" if args.kind == "converge-cox" else "satellites"
    extras = {"out": None, "plots": False}
    if args.config:
        cfg, extras = config_from_ini(args.config)
        if cfg.model != model:
            raise ConfigError(f"config file is for model {cfg.model!r}, "
                              f"but the subcommand expects {model!r}")
    else:
        cfg = ExperimentConfig(model=model)
    # CLI flags override config file values and the defaults
    flags = {"c": args.c, "sweep": args.sweep, "reps": args.reps, "seed": args.seed}
    if model == "cox-line":
        flags["window"] = None if args.window is None else parse_window(args.window)
    updates = {k: v for k, v in flags.items() if v is not None}
    if updates:
        cfg = replace(cfg, **updates)
    out_dir = args.out or extras.get("out")
    plots = args.plots or extras.get("plots", False)
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
    if model == "cox-line" and result.rows:
        row = result.rows[-1]
        print(f"note: measured intensity {row['eff_intensity']:.4f} per unit area "
              f"vs c={cfg.c:g}; the r >= 0 line construction has mean measure "
              f"(c/2) Leb2, and distances are compared against the target "
              f"{row['target_intensity']:g}.")
    print(f"wall time {result.wall_seconds:.1f}s"
          + (f"; outputs in {out_dir}" if out_dir else ""))
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    rows = run_validation_suite(args.seed, args.reps, which=args.which)
    print(format_check_table(rows))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "validation.csv")
        write_validation_csv(path, rows)
        print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "check":
            return _cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
