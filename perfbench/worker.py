"""One workload process: import coxsim from the checkout, run one CLI
command, and write its timings to a JSON file.

Usage: python3 worker.py JOB_JSON SPAWNED_AT

SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start, the coxsim
import and creating the output directory.  ``run_s`` runs from then until
``coxsim.cli.main`` returns, after it has written its last CSV.

Every time is reported twice: as wall time (``*_wall_s``) and in seconds at
reference speed (see SpeedProbe), which the benchmark's metrics use.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

import tracing

PROBE_INTERVAL_S = 0.1   # wall time between two speed probes
PROBE_LOOPS = 1000       # small numpy calls per probe
PROBE_REF_S = 0.0015     # a probe's duration at reference speed


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    On a shared virtual machine the CPU speed drifts by tens of percent,
    both within seconds and between minutes, while CPU time tracks wall time.
    So every PROBE_INTERVAL_S of wall time a SIGALRM handler times a fixed
    piece of the benchmark's own work (interpreter-bound small numpy calls,
    like coxsim's inner loops) in this process, between two bytecodes of the
    program.  It draws no random numbers, so the program's output is
    unchanged.  ``scaled`` turns a wall interval into seconds at reference
    speed: the interval minus the probes inside it, times the mean speed of
    those probes relative to PROBE_REF_S.
    """

    def __init__(self):
        self.samples: list = []  # (start, seconds) on the perf_counter clock
        self._small = np.linspace(0.0, 1.0, 32)
        self._busy = False

    def probe(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        acc = 0.0
        for _ in range(PROBE_LOOPS):
            acc += float(np.dot(self._small, self._small))
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.probe()  # so that even a short run has one sample

    def speed(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Mean speed of the probes that started in [start, end), relative
        to reference speed; NaN when there are none."""
        inside = [d for s, d in self.samples if start <= s < end]
        return statistics.fmean(PROBE_REF_S / d for d in inside) if inside else np.nan

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed that the program spent in [start, end)."""
        speed = self.speed(start, end)
        if np.isnan(speed):
            speed = self.speed()
        probing = sum(d for s, d in self.samples if start <= s < end)
        return (end - start - probing) * speed


def main(job_path: str, spawned_at: float) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import coxsim
    from coxsim import cli
    if not os.path.abspath(coxsim.__file__).startswith(src + os.sep):
        print(f"coxsim was imported from {coxsim.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    os.makedirs(job["out_dir"], exist_ok=True)
    setup_wall_s = _now() - spawned_at
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS if job["trace"] else tracing.UNITS)
    result = {}
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            result["exit_code"] = cli.main(job["argv"])
            result["error"] = None
        except Exception:
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
            print(result["error"], file=sys.stderr)
        end = time.perf_counter()
    speed = probe.speed()
    result.update({
        "speed": speed,
        "probes": len(probe.samples),
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * speed,
        "run_wall_s": end - start,
        "run_s": probe.scaled(start, end),
        "units": [(name, probe.scaled(a, b)) for name, a, b in tracer.units()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": tracer.summary(),
        "counters": dict(tracer.counters),
    })
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
