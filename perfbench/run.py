"""coxsim benchmark: end-to-end times and memory, or per-layer traced timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge-cox --seed 0 --seconds 40 --trace 0

Each repetition starts one fresh worker process (perfbench/worker.py) that
imports coxsim from ./src and runs one public CLI command on a config
generated from --seed.  Workers run one at a time, each single-threaded, so
a run fits a 2-core machine.  Repetitions continue until --seconds have
passed; every metric is the median over the repetitions of one run.
Times are in seconds at reference speed: the worker samples the machine's
speed while coxsim runs and converts wall time with it (worker.SpeedProbe).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced repetitions in alternating order and prints the
per-layer metrics.  Both check each repetition's output (see
check_experiment and check_validation) and print, as the last line of
stdout, one JSON object with the keys correct, attempted, failed, metrics.

The metric names and units come from BENCHMARK.json; perfbench/README.md
has the workload rationale and the per-layer prediction table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

HARD_LIMIT_S = 170.0          # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
COX_TARGET, COX_TOL = 0.5, 0.05  # eff_intensity check, as acceptance criterion 4

# Workload sizes: (full, smoke).  converge-cox keeps calibration_reps:reps
# at the acceptance ratio 5:1; converge-sat keeps the acceptance
# calibration_reps, whose reps x n int64 array sets its peak memory;
# check-all runs ValidationSettings.scaled(20000), 0.2x to 0.3x of the
# acceptance replicate counts.
SIZES = {
    "converge-cox": ({"sweep": "5 10 20 40 80", "reps": 1000, "calibration_reps": 5000},
                     {"sweep": "5 10 20 40", "reps": 1000, "calibration_reps": 5000}),
    "converge-sat": ({"sweep": "10 20 40 80 160", "reps": 1000, "calibration_reps": 50000},
                     {"sweep": "10 20 40 80", "reps": 1000, "calibration_reps": 1000}),
    "check-all": ({"reps": 20000}, {"reps": 2000}),
}

COX_INI = """[experiment]
model = cox-line
c = 1.0
window = disk:0,0,1
target_intensity = auto
sweep = {sweep}
reps = {reps}
calibration_reps = {calibration_reps}
seed = {seed}
"""

SAT_INI = """[experiment]
model = satellites
c = 2.0
sweep = {sweep}
reps = {reps}
calibration_reps = {calibration_reps}
seed = {seed}
"""

# validation.csv check-name prefixes of each check group
GROUP_PREFIXES = {"mecke": ("mecke_",), "invariance": ("invariance[",),
                  "glauber": ("glauber_",), "coarea": ("coarea[",),
                  "bounds": ("bound[",)}
TEXT_COLUMNS = {"model", "target_mode", "w_functional", "tv_region", "fit_kind"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)



class Workload:
    """A CLI command and the config it reads, generated from a seed."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str):
        self.name = name
        size = SIZES[name][1 if smoke else 0]
        if name == "check-all":
            self.config_text = None
            self.argv = ["check", "all", "--seed", str(seed), "--reps", str(size["reps"])]
            self.units = len(GROUP_PREFIXES)
            self.csv_name = "validation.csv"
        else:
            template = COX_INI if name == "converge-cox" else SAT_INI
            self.config_text = template.format(seed=seed, **size)
            config_path = os.path.join(work_dir, "experiment.ini")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(self.config_text)
            self.argv = ["experiment", name, "--config", config_path]
            self.units = len(size["sweep"].split())
            self.csv_name = "results.csv"

    def provenance(self) -> dict:
        return {"argv": self.argv + ["--out", "<temp dir>"],
                "config": self.config_text}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _fields(line: str) -> list:
    """Split a CSV line on commas outside brackets: coxsim writes names such
    as min(total,3) or glauber_traj[t=0.5,left] unquoted."""
    fields, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            fields.append(line[start:i])
            start = i + 1
    fields.append(line[start:])
    return fields


def _read_rows(path: str) -> list:
    """Data rows as dicts; a row whose field count is off is returned as None."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, f)) if len(f) == len(header) else None
            for f in map(_fields, lines[1:])]


def check_experiment(workload: Workload, path: str) -> int:
    """Failed sweep points: missing, non-finite, bound broken, or (cox-line)
    eff_intensity off the c/2 target by more than COX_TOL."""
    rows = _read_rows(path)
    failed = max(0, workload.units - len(rows))
    for row in rows:
        if row is None:
            failed += 1
            continue
        ok = all(_finite(v) for k, v in row.items() if k not in TEXT_COLUMNS and v != "")
        ok = ok and row["bound_respected"] == "1"
        if ok and workload.name == "converge-cox":
            ok = abs(float(row["eff_intensity"]) - COX_TARGET) <= COX_TOL
        failed += not ok
    return failed


def check_validation(workload: Workload, path: str) -> int:
    """Failed check groups: no rows, or a non-finite lhs, rhs or stderr.
    Single rows failing their 3-sigma rule are counted by the trace as
    harness.check_rows_failed, not here: they flip by chance on correct code."""
    rows = _read_rows(path)
    failed = sum(r is None for r in rows)
    rows = [r for r in rows if r is not None]
    for prefixes in GROUP_PREFIXES.values():
        group = [r for r in rows if r["check_name"].startswith(prefixes)]
        ok = bool(group) and all(_finite(r[k]) for r in group for k in ("lhs", "rhs", "stderr"))
        failed += not ok
    return min(failed, workload.units)


class Runner:
    """Starts worker processes one at a time inside a private work dir."""

    def __init__(self, workload_name: str, seed: int, smoke: bool, work_dir: str):
        self.work_dir = work_dir
        self.workload = Workload(workload_name, seed, smoke, work_dir)
        self.env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
        self.started = _now()
        self.spawned = 0

    def spawn(self, traced: bool) -> dict:
        self.spawned += 1
        tag = f"job{self.spawned}"
        out_dir = os.path.join(self.work_dir, tag)
        job = {"root": ROOT, "out_dir": out_dir, "trace": traced,
               "argv": self.workload.argv + ["--out", out_dir],
               "result": os.path.join(self.work_dir, f"{tag}.json")}
        job_path = os.path.join(self.work_dir, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = max(1.0, self.started + HARD_LIMIT_S - _now())
        spawned_at = _now()
        proc = subprocess.Popen([sys.executable, WORKER, job_path, repr(spawned_at)],
                                stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["traced"] = traced
        self._check(result, os.path.join(out_dir, self.workload.csv_name))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _check(self, result: dict, csv_path: str):
        result["attempted"] = self.workload.units
        if not os.path.exists(csv_path):
            result["digest"], result["failed"] = None, self.workload.units
            return
        with open(csv_path, "rb") as fh:
            result["digest"] = hashlib.sha256(fh.read()).hexdigest()
        expected_codes = (0, 1) if self.workload.name == "check-all" else (0,)
        if result["error"] is not None or result["exit_code"] not in expected_codes:
            result["failed"] = self.workload.units
        elif self.workload.name == "check-all":
            result["failed"] = check_validation(self.workload, csv_path)
        else:
            result["failed"] = check_experiment(self.workload, csv_path)


def layer_values(rep: dict, per_layer: list) -> dict:
    """Per-layer metric values of one traced repetition; span times are
    scaled to reference speed by the repetition's mean speed."""
    layers, counters = rep["layers"], rep["counters"]

    def span(name: str, field: str) -> float:
        value = layers.get(name, {}).get(field, 0.0)
        return value if field == "calls" else value * rep["speed"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evals = counters.get("diagnostics.functional_evals", 0.0)
    eval_s = (span("diagnostics.wasserstein_lower_bound", "self_s")
              + span("diagnostics.coupled_wasserstein_lower_bound", "s"))
    derived = {
        "coxmodels.points_per_line": ratio(counters.get("coxmodels.points", 0.0),
                                           counters.get("coxmodels.lines", 0.0)),
        "coxmodels.points_per_orbit": ratio(counters.get("coxmodels.satellite_points", 0.0),
                                            counters.get("coxmodels.orbits", 0.0)),
        "pointprocess.batch_bytes_computed":
            16.0 * counters.get("pointprocess.batch_points", 0.0),
        "diagnostics.functional_evals_per_s": ratio(evals, eval_s),
    }
    spans = {f"{m}.{f}" for m, f, _ in tracing.LAYERS}
    values = {}
    for metric in per_layer:
        name = metric["name"]
        prefix, _, field = name.rpartition(".")
        if prefix in spans and field in ("s", "self_s", "calls"):
            values[name] = float(span(prefix, field))
        elif name in derived:
            values[name] = derived[name]
        elif name != "trace_overhead_frac":
            values[name] = float(counters.get(name, 0.0))
    return values


def git_rev(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance(runner: Runner, seed: int) -> dict:
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:
        numpy_version = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(),
            "blas_thread_env": {k: runner.env.get(k) for k in THREAD_ENV},
            "git_rev": git_rev(ROOT), "workload": runner.workload.name,
            "seed": seed, **runner.workload.provenance()}


def measure(runner: Runner, seconds: float, trace: bool) -> list:
    """Repeat the workload until `seconds` pass; return the repetitions.

    A traced run orders its repetitions untraced, traced, traced, untraced,
    and so on, so that a drift in machine speed hits both kinds alike."""
    deadline = runner.started + seconds
    pattern = (False, True, True, False) if trace else (False,)
    reps: list = []
    while True:
        start = _now()
        reps.append(runner.spawn(traced=pattern[len(reps) % len(pattern)]))
        now = _now()
        if len(reps) >= len(set(pattern)) and now + (now - start) > deadline:
            return reps


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.exists(os.path.join(ROOT, "src", "coxsim", "__init__.py")):
        print(f"no coxsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, args.smoke, work_dir)
        reps = measure(runner, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = {r["digest"] for r in reps}
    reference = reps[0]["digest"]
    for r in reps:
        if r["digest"] != reference:
            r["failed"] = r["attempted"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": run_s,
        "max_unit_s": statistics.median(
            max((d for _, d in r["units"]), default=r["run_s"]) for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    wall = {k: statistics.median(r[k] for r in plain)
            for k in ("setup_wall_s", "run_wall_s", "speed")}
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        per_rep = [layer_values(r, metrics_spec) for r in traced]
        values = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
        values["trace_overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced) / run_s - 1.0)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions; "
          f"each value is a median over them")
    print("untraced run_s samples " + " ".join(f"{r['run_s']:.4g}" for r in plain))
    print("untraced medians, wall time: setup {setup_wall_s:.4g} s, run {run_wall_s:.4g} s; "
          "speed {speed:.4g} x reference".format(**wall))
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"sweep points or check groups)")
    print(f"{runner.workload.csv_name} sha256 {' '.join(sorted(map(str, digests)))}")
    print("provenance " + json.dumps(provenance(runner, args.seed), sort_keys=True))
    for m in metrics_spec:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
