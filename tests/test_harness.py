import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coxsim.cli as cli
import coxsim.coxmodels as coxmodels
import coxsim.diagnostics as diagnostics
import coxsim.harness as harness
from coxsim.cli import main
from coxsim.coxmodels import MODELS, POISSON_MAX_MEAN, sample_cox_line, sample_cox_line_batch
from coxsim.geometry import Disk, Rect
from coxsim.diagnostics import DistanceEstimate
from coxsim.harness import (CheckRow, ConfigError, ExperimentConfig, config_from_ini,
                            format_check_table, mc_row, parse_window, run_experiment,
                            run_validation_suite, write_validation_csv)
from coxsim.pointprocess import ModelParams, ReplicateBatch

SMALL = 2000


class TestExperimentConfig:
    def test_valid_satellites(self):
        cfg = ExperimentConfig("satellites", 2.0, (10, 20, 40, 80), 1000, 0)
        assert cfg.window is None

    def test_cox_gets_default_window(self):
        cfg = ExperimentConfig("cox-line", 1.0, (5, 10, 20, 40), 1000, 0)
        assert cfg.window == Disk((0.0, 0.0), 1.0)

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("hawkes", 1.0, (1, 2, 3, 4), 1000, 0)

    def test_short_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("satellites", 1.0, (10, 20, 40), 1000, 0)

    def test_non_increasing_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("satellites", 1.0, (10, 20, 20, 40), 1000, 0)

    def test_sweep_longer_than_point_index(self, monkeypatch, capsys):
        # refused before any value is checked or drawn: point 2^16 has no stream
        checked = []
        monkeypatch.setattr(coxmodels.Model, "finite_params",
                            lambda self, c, value, *args: checked.append(value))
        monkeypatch.setattr(harness, "stream", None)
        longest = tuple(range(10, 10 + 2 ** harness.POINT_BITS))
        ExperimentConfig("satellites", 1.0, longest, 1000, 0)
        assert len(checked) == 2 ** 16
        checked.clear()
        with pytest.raises(ConfigError, match="more than 65536"):
            ExperimentConfig("satellites", 1.0, longest + (longest[-1] + 1,), 1000, 0)
        sweep = " ".join(map(str, range(10, 11 + 2 ** harness.POINT_BITS)))
        assert main(["experiment", "converge-sat", "--sweep", sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and checked == []
        assert captured.err.startswith("config error: sweep has 65537 values")

    def test_low_reps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("satellites", 1.0, (10, 20, 40, 80), 500, 0)

    def test_bad_target(self, tmp_path):
        # the count-law target is the model's mean measure, not a setting; a
        # file may still say auto, and any other value is an error
        path = tmp_path / "exp.ini"
        for value in ("c", "double-c"):
            path.write_text("[experiment]\nmodel = cox-line\nsweep = 5 10 20 40\n"
                            f"target_intensity = {value}\n")
            with pytest.raises(ConfigError, match="mean measure"):
                config_from_ini(str(path))

    def test_non_integer_orbit_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("satellites", 1.0, (10.5, 20, 40, 80), 1000, 0)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("c, sweep", [
        (0.0, None), (math.inf, None), (math.nan, None), (1.0, (-5.0, 5.0, 10.0, 20.0)),
        (1.0, (5.0, 10.0, 20.0, math.inf))])
    def test_c_and_sweep_must_make_model_params(self, model, c, sweep):
        # each is a ValueError of model.params(c, value), raised as a ConfigError
        with pytest.raises(ConfigError, match="requires finite c > 0"):
            ExperimentConfig(model, c, sweep, 1000, 0)


class TestParseWindow:
    def test_disk(self):
        assert parse_window("disk:0,0,1") == Disk((0.0, 0.0), 1.0)

    def test_rect(self):
        assert parse_window("rect:0,0,2,1") == Rect(0.0, 0.0, 2.0, 1.0)

    def test_garbage(self):
        for bad in ("sphere:1", "disk:1,2", "rect:0,0,1", "disk:a,b,c"):
            with pytest.raises(ConfigError):
                parse_window(bad)


class TestIniConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmodel = satellites\nc = 2.0\n"
                        "sweep = 10 20 40 80\nreps = 1500\nseed = 7\n"
                        "out = results\nplots = true\n")
        cfg, extras = config_from_ini(str(path))
        assert cfg.model == "satellites"
        assert cfg.sweep == (10.0, 20.0, 40.0, 80.0)
        assert cfg.reps == 1500 and cfg.seed == 7
        assert extras == {"out": "results", "plots": True}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmodel = satellites\nsweep = 1 2 3 4\n"
                        "bogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            config_from_ini(str(path))
        # regions named a one-value preset; the key is gone
        path.write_text("[experiment]\nmodel = satellites\nsweep = 1 2 3 4\n"
                        "regions = default\n")
        with pytest.raises(ConfigError, match="regions"):
            config_from_ini(str(path))

    def test_missing_model(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nsweep = 1 2 3 4\n")
        with pytest.raises(ConfigError, match="model"):
            config_from_ini(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            config_from_ini("/nonexistent/exp.ini")

    def test_calibration_reps_ignored(self, tmp_path):
        # older config files, the benchmark's among them, carry
        # calibration_reps and target_intensity = auto; both are accepted and
        # have no effect on the output
        body = ("[experiment]\nmodel = cox-line\nc = 1.0\nwindow = disk:0,0,1\n"
                "sweep = 4 6 9 14\nreps = 1000\nseed = 5\n")
        outs = []
        for name, extra in (("old", "target_intensity = auto\ncalibration_reps = 5000\n"),
                            ("new", "")):
            path = tmp_path / f"{name}.ini"
            path.write_text(body + extra)
            cfg, _ = config_from_ini(str(path))
            run_experiment(cfg, out_dir=str(tmp_path / name))
            outs.append((tmp_path / name / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model, kind", [(name, kind) for name, m in MODELS.items()
                                             for kind in (m.experiment, "simulate", "bound")])
    def test_default_c_matches_cli(self, tmp_path, monkeypatch, capsys, model, kind):
        # a file that leaves c out runs the c of every command without --c
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nmodel = {model}\nsweep = 10 20 40 80\n")
        size = [MODELS[model].flags[0], "10"]
        if kind == "simulate":
            assert main(["simulate", model, *size]) == 0
            c = json.loads(capsys.readouterr().out.splitlines()[-1])["c"]
        elif kind == "bound":
            assert main(["bound", model, *size]) == 0
            c = float(capsys.readouterr().out.splitlines()[-1].split(",")[1])
        else:
            seen = []
            monkeypatch.setattr(cli, "run_experiment",
                                lambda cfg, **kw: seen.append(cfg) or harness.ExperimentResult(cfg))
            assert main(["experiment", kind]) == 0
            c = seen[0].c
        assert config_from_ini(str(path))[0].c == c == MODELS[model].c
        assert c == {"cox-line": 1.0, "satellites": 2.0}[model]   # as README documents

    @pytest.mark.parametrize("model, kind", [(name, m.experiment) for name, m in MODELS.items()])
    def test_model_only_file_matches_bare_cli(self, tmp_path, model, kind):
        # every key a file leaves out takes the bare command's value
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nmodel = {model}\n")
        assert main(["experiment", kind, "--out", str(tmp_path / "bare")]) == 0
        assert main(["experiment", kind, "--config", str(path),
                     "--out", str(tmp_path / "ini")]) == 0
        assert ((tmp_path / "bare" / "results.csv").read_bytes()
                == (tmp_path / "ini" / "results.csv").read_bytes())

    def test_window_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmodel = cox-line\nc = 1\n"
                        "sweep = 5 10 20 40\nwindow = rect:0,0,1,1\n")
        cfg, _ = config_from_ini(str(path))
        assert cfg.window == Rect(0, 0, 1, 1)


class TestRunExperiment:
    def test_satellite_smoke(self, tmp_path):
        cfg = ExperimentConfig("satellites", 2.0, (4, 6, 9, 14), 1000, 3)
        res = run_experiment(cfg, out_dir=str(tmp_path), plots=True)
        assert len(res.rows) == 4
        assert res.fit is not None
        for row in res.rows:
            assert row["bound"] == pytest.approx(8.0 / row["param"])
            assert row["bound_respected"] == 1
        text = (tmp_path / "results.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "# schema_version=4"
        assert lines[1] == ",".join(harness.RESULTS_COLUMNS)
        assert len(lines) == 6  # comment + header + 4 rows
        assert (tmp_path / "fit.csv").exists()
        assert (tmp_path / "results.svg").exists()

    def test_rerun_removes_stale_fit_and_plot(self, tmp_path, monkeypatch):
        # a rerun into the same directory that writes no fit.csv or
        # results.svg leaves none from the earlier run
        cfg = ExperimentConfig("satellites", 2.0, (4, 6, 9, 14), 1000, 3)
        run_experiment(cfg, out_dir=str(tmp_path), plots=True)
        assert (tmp_path / "fit.csv").exists() and (tmp_path / "results.svg").exists()

        def no_fit(points):
            raise ValueError("rate regression requires positive distances")
        monkeypatch.setattr(harness, "rate_regression", no_fit)
        res = run_experiment(cfg, out_dir=str(tmp_path))
        assert res.fit is None and res.fit_error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]

    def test_cox_smoke_fixed_target(self, tmp_path):
        # the target is the model's mean measure c/2, which the sweep's own
        # samples measure
        cfg = ExperimentConfig("cox-line", 2.0, (4, 6, 9, 14), 1000, 3)
        res = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(res.rows) == 4
        for row in res.rows:
            assert row["target_intensity"] == 1.0
            assert row["eff_intensity"] == pytest.approx(1.0, abs=0.1)

    def test_cox_auto_target_off_origin(self):
        # the target is the closed form c/2 on any window; eff_intensity is the
        # mean window count of the sweep's own samples per unit area
        window = Rect(3.0, -0.5, 4.0, 0.5)
        cfg = ExperimentConfig("cox-line", 1.0, (4, 6, 9, 14), 1000, 3,
                               window=window)
        row = harness.run_sweep_point(cfg, 1, 6.0)
        assert row["target_intensity"] == 0.5
        params = ModelParams.planar(1.0, 6.0)
        block = harness.BLOCK_REPS

        def block_points(start):
            rng = harness.stream(3, harness.LANE_SAMPLES, 1, start // block)
            _, pair = sample_cox_line_batch(params, window, min(block, cfg.reps - start), rng)
            return pair.model.points.shape[0]

        total = sum(block_points(start) for start in range(0, cfg.reps, block))
        assert round(row["eff_intensity"] * window.measure * cfg.reps) == total

    def test_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig("satellites", 2.0, (4, 6, 9, 14), 1000, 11)
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())

    def test_stderr_shrinks_with_reps(self):
        # quadrupling the replicate count shrinks stderr by ~2x (within 20%)
        base = dict(model="satellites", c=2.0, sweep=(4, 6, 9, 14), seed=21)
        row_small = harness.run_sweep_point(
            ExperimentConfig(reps=1500, **base), 0, 6.0)
        row_big = harness.run_sweep_point(
            ExperimentConfig(reps=6000, **base), 0, 6.0)
        ratio = row_small["w_stderr"] / row_big["w_stderr"]
        assert 1.6 <= ratio <= 2.4

    def test_partial_flush(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig("satellites", 2.0, (4, 6, 9, 14), 1000, 3)
        original = harness.run_sweep_point

        def failing(cfg_, idx, value):
            if idx == 2:
                raise RuntimeError("killed")
            return original(cfg_, idx, value)

        monkeypatch.setattr(harness, "run_sweep_point", failing)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # comment + header + 2 completed rows

    def test_satellite_point_leaves_numpy_ma_unimported(self):
        # np.unique without counts or indices imports numpy.ma (numpy 2.x),
        # several ms in every fresh process; no satellite sweep step needs it
        code = ("import sys\n"
                "from coxsim.harness import ExperimentConfig, run_sweep_point\n"
                "cfg = ExperimentConfig('satellites', 2.0, (10, 20, 40, 80), 1000, 0)\n"
                "run_sweep_point(cfg, 0, 10.0)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True).stdout
        assert out.strip() == "False"

    def test_cli_runs_leave_numpy_ma_unimported(self):
        # the same guard over every path the benchmark times: both sweeps,
        # the whole validation suite (with its quadratures) and a rect bound
        code = ("import contextlib, io, sys\n"
                "from coxsim.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    main(['check', 'all', '--reps', '2000'])\n"
                "    main(['experiment', 'converge-cox', '--reps', '1000'])\n"
                "    main(['experiment', 'converge-sat', '--reps', '1000'])\n"
                "    main(['bound', 'cox-line', '--lam', '10', '--window', 'rect:0,0,1,1'])\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True).stdout
        assert out.strip() == "False"


def sweep_point(model: str, point_idx: int, value: float, seed: int = 0) -> dict:
    cfg = ExperimentConfig(model, MODELS[model].c, MODELS[model].sweep, 1000, seed)
    return harness.run_sweep_point(cfg, point_idx, value)


def spy_bootstrap(monkeypatch) -> list:
    """Record the region name of every bootstrap run_sweep_point runs."""
    calls, original = [], harness.count_tv_lower_bound

    def spy(pmfs, reps, rng, region_name):
        calls.append(region_name)
        return original(pmfs, reps, rng, region_name)

    monkeypatch.setattr(harness, "count_tv_lower_bound", spy)
    return calls


def spy_region_tvs(monkeypatch) -> list:
    """Record (counts, mean, tv) of every region run_sweep_point measures, in
    region order."""
    regions, original = [], harness.count_pmfs

    def spy(counts, mean):
        pmfs = original(counts, mean)
        regions.append((counts, mean, diagnostics.tv_vs_poisson(pmfs)))
        return pmfs

    monkeypatch.setattr(harness, "count_pmfs", spy)
    return regions


class TestSweepPointBootstrap:
    """Only the reported region and the regions above the bound get a
    bootstrap stderr; any other region passes value <= bound + 3 stderr
    whatever its stderr, so bound_respected keeps the eager rule's truth."""

    @pytest.mark.parametrize("model, value", [("cox-line", 5.0), ("satellites", 10.0)])
    def test_one_bootstrap_when_all_within_bound(self, monkeypatch, model, value):
        # tv_distance is the largest region TV, so every region is within the
        # bound and only the reported one of 20 (cox-line) or 11 regions is
        # bootstrapped
        calls = spy_bootstrap(monkeypatch)
        row = sweep_point(model, 0, value)
        assert row["tv_distance"] <= row["bound"]
        assert len(calls) == 1 and len(row["_tv_estimates"]) == 1

    @pytest.mark.parametrize("model", ["cox-line", "satellites"])
    def test_regions_above_bound_bootstrapped(self, monkeypatch, model):
        calls, regions = spy_bootstrap(monkeypatch), spy_region_tvs(monkeypatch)
        row = sweep_point(model, 0, 1e6)
        names = [name for name, _ in MODELS[model].regions(MODELS[model].window)]
        assert len(regions) == len(names)
        above = {name for name, (_, _, tv) in zip(names, regions) if tv > row["bound"]}
        assert above   # the bound lies far below the empirical TV's noise floor
        assert above <= {e.regions for e in row["_tv_estimates"]}
        assert len(calls) == len(row["_tv_estimates"])

    @pytest.mark.parametrize("model", ["cox-line", "satellites"])
    def test_pmfs_built_once_per_region(self, monkeypatch, model):
        # the region pick and every bootstrap share one (p_hat, q, tail)
        calls, original = [], diagnostics._pmfs
        monkeypatch.setattr(diagnostics, "_pmfs",
                            lambda counts, q: calls.append(q.size) or original(counts, q))
        row = sweep_point(model, 0, 1e6)
        assert len(row["_tv_estimates"]) > 1
        assert len(calls) == len(MODELS[model].regions(MODELS[model].window))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("model, point_idx, value", [
        ("cox-line", 4, 80.0), ("cox-line", 0, 1e6),
        ("satellites", 4, 160.0), ("satellites", 0, 1e6)])
    def test_matches_eager_rule(self, monkeypatch, model, point_idx, value, seed):
        # eager: every region bootstrapped, region k on stream (4, point, k)
        regions = spy_region_tvs(monkeypatch)
        row = sweep_point(model, point_idx, value, seed)
        eager = [diagnostics.count_tv_lower_bound(
                     diagnostics.count_pmfs(counts, mean), counts.size,
                     harness.stream(seed, harness.LANE_BOOTSTRAP, point_idx, k), "")
                 for k, (counts, mean, _) in enumerate(regions)]
        eager = [(e.value, e.stderr) for e in eager]
        bound, w = row["bound"], row["_w_est"]
        respected = (w.value <= bound + 3.0 * w.stderr
                     and all(v <= bound + 3.0 * se for v, se in eager))
        assert row["bound_respected"] == int(respected)
        best = max(range(len(eager)), key=lambda k: eager[k][0])
        assert (row["tv_distance"], row["tv_stderr"]) == eager[best]


class TestValidationSuite:
    def test_selected_subsets(self):
        rows = run_validation_suite(0, SMALL, which="coarea")
        assert all(r.name.startswith("coarea") for r in rows)
        rows = run_validation_suite(0, SMALL, which="bounds")
        assert all(r.passed for r in rows)

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="mecke, invariance, glauber, coarea, "
                                             "bounds or all"):
            run_validation_suite(0, SMALL, which="Mecke")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_is_each_group_in_order(self, seed):
        # a group's rows do not depend on which other groups run
        alone = [row for group in harness.CHECK_GROUPS
                 for row in run_validation_suite(seed, SMALL, which=group)]
        assert run_validation_suite(seed, SMALL) == alone

    def test_deterministic(self):
        a = run_validation_suite(5, SMALL, which="invariance")
        b = run_validation_suite(5, SMALL, which="invariance")
        assert a == b

    def test_csv_format(self, tmp_path):
        rows = run_validation_suite(0, SMALL, which="bounds")
        path = tmp_path / "validation.csv"
        write_validation_csv(str(path), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "check_name,lhs,rhs,stderr,pass,seed"
        assert len(lines) == 2 + len(rows)

    def test_table_format(self):
        rows = run_validation_suite(0, SMALL, which="bounds")
        table = format_check_table(rows)
        assert "checks passed" in table


class TestCheckRow:
    """mc_row builds every Monte Carlo row; within_3se is every row's verdict."""

    RNG = np.random.default_rng(7)
    A, B = RNG.random(997), RNG.integers(0, 4, 1013).astype(float)
    MATRIX = RNG.random((500, 3))

    def test_two_sample_stderr_bit_for_bit(self):
        a, b = self.A, self.B
        row = mc_row("r", a, b, 0)
        # the two-sample expression at unequal sizes, and the stationarity
        # section's at equal sizes
        assert row.stderr == math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        n = 500
        x, y = self.MATRIX[:, 0], self.MATRIX[:, 1]
        assert (mc_row("r", x, y, 0).stderr
                == math.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / n))
        assert (row.lhs, row.rhs) == (float(a.mean()), float(b.mean()))
        assert not row.one_sided

    def test_constant_target_stderr_bit_for_bit(self):
        # the generator-null section passes strided columns of a (reps x F)
        # matrix, the contraction section whole arrays
        for vals in (*self.MATRIX.T, self.A):
            n = vals.size
            row = mc_row("r", vals, 0.25, 0)
            assert row.stderr == float(vals.std(ddof=1) / math.sqrt(n))
            assert (row.lhs, row.rhs) == (float(vals.mean()), 0.25)
        assert mc_row("r", np.array([0.5]), 1.0, 0, one_sided=True).stderr == math.inf

    @pytest.mark.parametrize("lhs, one_sided, passed", [
        (1.75, False, True), (0.25, False, True),
        (1.75, True, True), (0.25, True, True), (-100.0, True, True),
        (-100.0, False, False),
        (np.nextafter(1.75, 2.0), False, False), (np.nextafter(1.75, 2.0), True, False),
        (0.25 - 2.0 ** -52, False, False)])
    def test_boundaries(self, lhs, one_sided, passed):
        # rhs 1 and stderr 1/4 make 1 +- 3 stderr exact
        assert CheckRow("r", float(lhs), 1.0, 0.25, 0, one_sided).passed is passed
        assert harness.within_3se(float(lhs), 1.0, 0.25, one_sided) is passed

    def test_infinite_stderr_passes_nan_fails(self):
        assert CheckRow("r", 5.0, 0.0, math.inf, 0, True).passed
        assert not CheckRow("r", 5.0, 0.0, math.nan, 0).passed

    def test_tv_at_threshold_passes(self):
        # a threshold row is (tv, 0, threshold / 3); 3 * (threshold / 3) rounds
        # below threshold at some reps (20000 among them), and the rule still
        # passes a TV exactly at its threshold
        square = Rect(0.0, 0.0, 1.0, 1.0)
        for reps in (*range(1, 2001), 10_000, 20_000, 100_000):
            empty = ReplicateBatch.tile(np.empty((0, 2)), reps)
            [row] = harness.tv_rows("tv[t=0", empty, empty, [("window", square)], 0)
            assert row.name == "tv[t=0,window]" and row.lhs == 0.0 and row.passed
            threshold = 2.0 / math.sqrt(reps)
            assert row.replace(lhs=threshold).passed, reps
            assert not row.replace(lhs=threshold * (1 + 1e-9)).passed, reps

    def test_bound_respected_is_the_one_sided_rule(self):
        estimates = [DistanceEstimate(1.75, 0.25, "a"), DistanceEstimate(0.0, 0.0, "b")]
        assert harness._bound_respected(estimates, 1.0)
        above = DistanceEstimate(float(np.nextafter(1.75, 2.0)), 0.25, "c")
        assert not harness._bound_respected(estimates + [above], 1.0)


class TestCli:
    def test_bound_satellites(self, capsys):
        assert main(["bound", "satellites", "--c", "2", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "0.08" in out

    def test_bound_cox(self, capsys):
        assert main(["bound", "cox-line", "--c", "1", "--lam", "10"]) == 0
        assert "0.5333" in capsys.readouterr().out

    def test_bound_out_writes_header_into_empty_file(self, tmp_path):
        # an empty file gets the schema line and header, as a missing one does;
        # a second run appends its row alone
        argv = ["bound", "satellites", "--n", "10", "--out"]
        missing, empty = tmp_path / "missing.csv", tmp_path / "empty.csv"
        empty.touch()
        for path in (missing, empty):
            assert main([*argv, str(path)]) == 0
        assert empty.read_text() == missing.read_text()
        lines = empty.read_text().splitlines()
        assert lines[0].startswith("# schema_version=")
        assert lines[1] == "model,c,param,window,bound"
        assert main([*argv, str(empty)]) == 0
        assert empty.read_text().splitlines() == lines + lines[2:]

    def test_bound_cox_rect(self, capsys):
        # closed-form G for the unit square: 0.946402009 / lambda
        assert main(["bound", "cox-line", "--lambda", "10",
                     "--window", "rect:0,0,1,1"]) == 0
        assert "0.094640201" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "cox-line", "--c", "0", "--lam", "5"],
        ["simulate", "cox-line", "--c", "1", "--lam", "-2"],
        ["simulate", "satellites", "--c", "-1", "--n", "5"],
        ["simulate", "satellites", "--c", "1", "--n", "0"],
        ["bound", "cox-line", "--c", "1", "--lam", "0"],
        ["bound", "cox-line", "--c", "-3", "--lam", "10"],
        ["bound", "satellites", "--c", "0", "--n", "10"],
        ["bound", "satellites", "--c", "2", "--n", "0"],
        ["experiment", "converge-cox", "--sweep", "0,5,10,20", "--reps", "1000"],
        ["experiment", "converge-cox", "--sweep=-5,5,10,20", "--reps", "1000"],
        ["experiment", "converge-sat", "--sweep", "0,10,20,40", "--reps", "1000"],
        ["simulate", "cox-line", "--lam", "1", "--window", "rect:0,0,inf,1"],
        ["simulate", "cox-line", "--lam", "1", "--window", "disk:inf,0,1"],
        ["bound", "cox-line", "--lam", "1", "--window", "rect:0,0,inf,1"],
        ["bound", "cox-line", "--lam", "1", "--window", "disk:0,-inf,1"],
        ["check", "bounds", "--reps", "0"],
        ["check", "bounds", "--reps", "-5"],
        ["experiment", "converge-sat", "--sweep", "10,20,40,inf", "--reps", "1000"],
        ["experiment", "converge-cox", "--c", "inf", "--reps", "1000"],
        ["experiment", "converge-cox", "--sweep", "5,10,20,inf", "--reps", "1000"],
        ["experiment", "converge-cox", "--c", "nan", "--reps", "1000"],
        ["simulate", "cox-line", "--c", "inf", "--lam", "5"],
        ["simulate", "satellites", "--c", "inf", "--n", "5"],
        ["bound", "cox-line", "--lam", "inf"],
        ["bound", "satellites", "--c", "nan", "--n", "5"],
    ])
    def test_bad_model_params_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    @pytest.mark.parametrize("argv", [
        ["bound", "cox-line", "--lam", "10", "--c", "1e200"],
        ["bound", "satellites", "--c", "1e200", "--n", "10"],
        ["experiment", "converge-cox", "--c", "1e200", "--reps", "1000"],
        ["bound", "cox-line", "--lam", "10", "--window", "disk:0,0,1e200"],
        ["bound", "cox-line", "--lam", "10", "--window", "rect:0,0,1e200,1"],
        ["simulate", "cox-line", "--c", "1e200", "--lam", "10"],
        ["bound", "cox-line", "--lam", "1e-320"],
        ["experiment", "converge-cox", "--reps", "1000", "--window", "disk:0,0,1e-200"],
        ["experiment", "converge-cox", "--reps", "1000", "--window", "rect:0,0,1e-200,1e-200"],
        ["bound", "cox-line", "--lam", "10", "--window", "disk:0,0,1e-200"],
        ["bound", "cox-line", "--lam", "10", "--window", "disk:0,0,1e-160"],
        ["bound", "cox-line", "--c", "1e-200", "--lam", "10"],
        ["bound", "satellites", "--c", "1e-200", "--n", "10"],
    ], ids=["bound-c", "bound-sat-c", "experiment-c", "disk", "rect", "simulate-c",
            "bound-inf", "experiment-disk-underflow", "experiment-rect-underflow",
            "bound-disk-underflow", "bound-zero-disk", "bound-zero-c", "bound-zero-sat-c"])
    def test_bound_beyond_float_range_exit_2(self, argv, capsys):
        # an input whose bound or window measure overflows a float, or whose
        # window area or bound underflows to 0 (a disk of area 3e-320 is still
        # a window), is a config error, not a traceback (exit 1) or an inf or
        # 0 bound (exit 0)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    @pytest.mark.parametrize("argv", [
        ["simulate", "cox-line", "--c", "1e150", "--lam", "1e150"],
        ["simulate", "satellites", "--c", "1e150", "--n", "10"],
        ["experiment", "converge-sat", "--c", "1e150", "--reps", "1000"],
    ], ids=["simulate-cox", "simulate-sat", "experiment-sat"])
    def test_count_beyond_poisson_range_exit_2(self, argv, capsys):
        # the bound is finite, but numpy's Poisson sampler rejects the mean
        # count: a config error, not the traceback "lam value too large"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "Poisson mean" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["simulate", "satellites", "--c", "9.2e18", "--n", "10"],
        ["simulate", "satellites", "--c", "2e4", "--n", "10"],
        ["simulate", "cox-line", "--c", "2e4", "--lam", "10"],
        ["experiment", "converge-sat", "--c", "20", "--reps", "1000"],
        ["experiment", "converge-cox", "--c", "20", "--reps", "1000"],
    ], ids=["simulate-sat-poisson-edge", "simulate-sat", "simulate-cox", "experiment-sat",
            "experiment-cox"])
    def test_points_beyond_memory_exit_2(self, argv, capsys, monkeypatch):
        # physical memory read as 4 MiB holds about 21,000 points; each run
        # would hold 40,000 to 63,000 (per replicate, model and twin, times
        # reps for a sweep point), a few MB if it ran.  At c = 9.2e18 the
        # count is inside numpy's Poisson range but no array can hold it.
        monkeypatch.setattr(coxmodels, "PHYSICAL_MEMORY", 4 * 2 ** 20)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: holding")
        assert "bytes, above 4.19e+06 of physical memory" in lines[0]

    def test_underflowing_bound_is_refused_before_plots(self, tmp_path, capsys):
        # a zero bound has no log10: the sweep must stop before its first row,
        # not write results.csv and then fail in the rate plot
        out = tmp_path / "run"
        assert main(["experiment", "converge-cox", "--reps", "1000", "--window",
                     "disk:0,0,1e-160", "--out", str(out), "--plots"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the bound (0)")

    @pytest.mark.parametrize("argv", [
        ["experiment", "converge-cox", "--c", "0.01", "--reps", "10000"],
        ["experiment", "converge-sat", "--c", "0.01", "--reps", "10000"],
    ], ids=["experiment-cox", "experiment-sat"])
    def test_replicates_beyond_memory_exit_2(self, argv, capsys, monkeypatch):
        # 4 MiB of physical memory holds about 8,300 replicates at 500 bytes
        # each; the points alone (a few hundred) would fit, so a points-only
        # rule runs these sweeps, about 4 MiB each by tracemalloc
        monkeypatch.setattr(coxmodels, "PHYSICAL_MEMORY", 4 * 2 ** 20)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: holding")
        assert "in 10000 replicates at once" in lines[0]
        assert "bytes, above 4.19e+06 of physical memory" in lines[0]

    @pytest.mark.parametrize("which", ["mecke", "invariance", "glauber", "all"])
    def test_check_replicates_beyond_memory_exit_2(self, which, tmp_path, capsys,
                                                   monkeypatch):
        # 2 MiB of physical memory against 40,000 replicates at 100 (glauber) to
        # 400 (mecke) bytes each; unguarded, each run holds at most about 12 MiB
        monkeypatch.setattr(coxmodels, "PHYSICAL_MEMORY", 2 * 2 ** 20)
        out = tmp_path / "checks"
        assert main(["check", which, "--reps", "40000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: holding 40000 check replicates at once")
        with pytest.raises(ConfigError, match="physical memory"):
            harness.run_validation_suite(0, 40000, which)

    @pytest.mark.parametrize("which", ["coarea", "bounds"])
    def test_checks_that_draw_nothing_take_any_reps(self, which, capsys, monkeypatch):
        monkeypatch.setattr(coxmodels, "PHYSICAL_MEMORY", 2 * 2 ** 20)
        assert main(["check", which, "--reps", "1000000000"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_bound_draws_nothing_whatever_memory(self, capsys, monkeypatch):
        monkeypatch.setattr(coxmodels, "PHYSICAL_MEMORY", 4 * 2 ** 20)
        assert main(["bound", "satellites", "--c", "1e9", "--n", "10"]) == 0
        assert "2e+17" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["cox-line", "satellites"])
    def test_poisson_range_edge(self, name):
        # a c just inside the range draws its expected count; just outside, refused
        model = MODELS[name]
        measure = model.regions(model.window)[0][1].measure
        c = POISSON_MAX_MEAN / (model.mean * measure)
        params = model.finite_params(c * (1.0 - 1e-9), model.sweep[0], model.window)
        np.random.default_rng(0).poisson(model.mean * params.c * measure)
        with pytest.raises(ValueError, match="Poisson mean"):
            model.finite_params(c * (1.0 + 1e-9), model.sweep[0], model.window)

    def test_simulate_to_dir(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "cox-line", "--c", "2", "--lam", "10",
                     "--seed", "3", "--out", str(out)]) == 0
        text = (out / "points.csv").read_text()
        assert text.startswith("x,y\n")
        points = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
        # the same draw as the command: seed 3, lane 0, default window
        expect = sample_cox_line(ModelParams.planar(2.0, 10.0), Disk((0.0, 0.0), 1.0),
                                 harness.stream(3, harness.LANE_SAMPLES)).points
        assert len(expect) > 0 and np.array_equal(points, expect)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_points"] == len(expect)
        # n_lines counts only the lines that carry a point
        assert 1 <= summary["n_lines"] <= summary["n_points"]

    def test_simulate_satellites_stdout(self, capsys):
        assert main(["simulate", "satellites", "--c", "3", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x,y,z")

    def test_check_exit_codes(self, tmp_path):
        out = tmp_path / "chk"
        code = main(["check", "bounds", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert (out / "validation.csv").exists()

    def test_check_determinism_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["check", "coarea", "--seed", "9",
                         "--out", str(tmp_path / sub)]) == 0
        assert ((tmp_path / "a" / "validation.csv").read_bytes()
                == (tmp_path / "b" / "validation.csv").read_bytes())

    def test_check_default_is_reps_100000(self, tmp_path):
        # one sizing formula: the default run is the run at its default reps
        for sub, extra in (("default", []), ("explicit", ["--reps", "100000"])):
            main(["check", "all", "--seed", "0", "--out", str(tmp_path / sub)] + extra)
        assert ((tmp_path / "default" / "validation.csv").read_bytes()
                == (tmp_path / "explicit" / "validation.csv").read_bytes())

    def test_experiment_config_file(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        out = tmp_path / "res"
        ini.write_text("[experiment]\nmodel = satellites\nc = 2.0\n"
                       "sweep = 4 6 9 14\nreps = 1000\nseed = 2\n"
                       f"calibration_reps = 2000\nout = {out}\n")
        assert main(["experiment", "converge-sat", "--config", str(ini)]) == 0
        assert (out / "results.csv").exists()
        assert "rate fit" in capsys.readouterr().out

    def test_experiment_bad_config_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nmodel = satellites\nsweep = 4 6 9 14\n"
                       "mystery = 1\n")
        assert main(["experiment", "converge-sat", "--config", str(ini)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_experiment_bad_boolean_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nmodel = satellites\nsweep = 4 6 9 14\n"
                       "reps = 1000\nplots = maybe\n")
        assert main(["experiment", "converge-sat", "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "maybe" in lines[0]

    def test_target_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "converge-cox", "--target", "c"])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err

    @pytest.mark.parametrize("model, line", [
        ("cox-line", "target_intensity = c"),
        ("satellites", "window = rect:0,0,5,5")])
    def test_experiment_bad_key_value_exit_2(self, tmp_path, capsys, model, line):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nmodel = {model}\nsweep = 4 6 9 14\n"
                       f"reps = 1000\n{line}\n")
        assert main(["experiment", MODELS[model].experiment, "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_experiment_model_mismatch_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nmodel = satellites\nsweep = 4 6 9 14\n")
        assert main(["experiment", "converge-cox", "--config", str(ini)]) == 2

    @pytest.mark.parametrize("body", [
        "[experiment]\nmodel = satellites\nmodel = cox-line\n",
        "[experiment]\nmodel = satellites\n[experiment]\nreps = 1000\n",
        "model = satellites\nsweep = 4 6 9 14\n",
        "[experiment]\nmodel = satellites\nsweep\n",
        "[experiment]\nmodel = satellites\nsweep = 4 6 9 14\nout = run%\n",
    ], ids=["duplicate-key", "duplicate-section", "no-section-header", "no-equals",
            "lone-percent"])
    def test_experiment_malformed_ini_exit_2(self, tmp_path, capsys, body):
        ini = tmp_path / "exp.ini"
        ini.write_text(body)
        assert main(["experiment", "converge-sat", "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    @pytest.mark.parametrize("key, value, flag, flag_value", [
        ("reps", "500", ["--reps", "1000"], 1000),
        ("sweep", "4 6", ["--sweep", "4,6,9,14"], (4.0, 6.0, 9.0, 14.0)),
        ("c", "0", ["--c", "1"], 1.0)], ids=["reps", "sweep", "c"])
    def test_flag_replaces_invalid_ini_value(self, tmp_path, monkeypatch, key, value, flag,
                                             flag_value):
        # defaults, then the file, then the flags, built once: a file value a
        # flag replaces is never checked on its own
        keys = {"model": "satellites", "c": "2", "sweep": "10 20 40 80", "reps": "1500",
                "seed": "3", key: value}
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg, **kw: seen.append(cfg) or harness.ExperimentResult(cfg))
        assert main(["experiment", "converge-sat", "--config", str(ini), *flag]) == 0
        expect = ExperimentConfig("satellites", 2.0, (10.0, 20.0, 40.0, 80.0), 1500, 3)
        assert seen == [expect.replace(**{key: flag_value})]

    @pytest.mark.parametrize("argv, taken_by", [
        (["bound", "satellites", "--n", "100"], "directory"),
        (["check", "bounds"], "file"),
        (["simulate", "satellites", "--n", "10"], "file"),
        (["experiment", "converge-sat", "--reps", "1000"], "file")],
        ids=["bound", "check", "simulate", "experiment"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, argv, taken_by):
        # an --out that cannot be written is a config error, reported before
        # any output
        out = tmp_path / "taken"
        out.mkdir() if taken_by == "directory" else out.write_text("keep\n")
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert str(out) in lines[0]
        assert out.is_dir() if taken_by == "directory" else out.read_text() == "keep\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "satellites", "--n", "10", "--seed", "-1"],
        ["simulate", "cox-line", "--lam", "5", "--seed", str(2 ** 64)],
        ["experiment", "converge-sat", "--reps", "1000", "--seed", "-1"],
        ["check", "bounds", "--seed", str(2 ** 64)],
        ["check", "mecke", "--reps", "2000", "--seed", "-1"]],
        ids=["simulate-negative", "simulate-2^64", "experiment", "check", "check-mecke"])
    def test_seed_out_of_range_exit_2(self, tmp_path, capsys, argv):
        # a seed outside [0, 2^64) would alias a valid one modulo 2^64
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: seed must lie in")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_ini_seed_out_of_range_exit_2(self, tmp_path, capsys, seed):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nmodel = satellites\nsweep = 4 6 9 14\n"
                       f"reps = 1000\nseed = {seed}\n")
        assert main(["experiment", "converge-sat", "--config", str(ini)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: seed must lie in")

    def test_stream_refuses_seeds_outside_the_key_word(self):
        for seed in (-1, 2 ** 64, -(2 ** 64)):
            with pytest.raises(ValueError, match="seed must lie in"):
                harness.stream(seed, 0)
        top = harness.stream(2 ** 64 - 1, 0).random(4)
        assert not np.array_equal(top, harness.stream(0, 0).random(4))

    def test_experiment_plots_need_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # --plots or the INI plots key with no output directory: nothing runs
        monkeypatch.chdir(tmp_path)
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nmodel = satellites\nsweep = 4 6 9 14\n"
                       "reps = 1000\nplots = true\n")
        for argv in (["--reps", "1000", "--plots"], ["--config", str(ini)]):
            assert main(["experiment", "converge-sat", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error:")
        assert list(tmp_path.iterdir()) == [ini]
