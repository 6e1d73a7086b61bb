"""The benchmark writes INI configs and reads coxsim's CSVs by column name
and check-name prefix.  Its smoke test runs outside tier-1, so a renamed
column, a rejected config key or a lost check group would otherwise show up
only when the benchmark runs.

The constants are read from perfbench/run.py with ast.literal_eval: the file
is neither imported nor written to."""

import ast
import math
from pathlib import Path

import pytest

from coxsim.cli import main
from coxsim.harness import config_from_ini, run_experiment, run_validation_suite

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
NAMES = ("COX_INI", "SAT_INI", "SIZES", "GROUP_PREFIXES", "TEXT_COLUMNS")


def _constants() -> dict:
    found = {}
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in NAMES:
                found[name] = ast.literal_eval(node.value)
    return found


BENCH = _constants()
SEED = 3


@pytest.mark.parametrize("workload", ["converge-cox", "converge-sat"])
def test_smoke_config_runs(tmp_path, workload):
    template = BENCH["COX_INI"] if workload == "converge-cox" else BENCH["SAT_INI"]
    smoke = BENCH["SIZES"][workload][1]
    ini = tmp_path / "experiment.ini"
    ini.write_text(template.format(seed=SEED, **smoke), encoding="utf-8")
    cfg, _ = config_from_ini(str(ini))
    res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert len(res.rows) == len(smoke["sweep"].split())
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[1].split(",")
    # check_experiment reads these two columns and wants every column outside
    # TEXT_COLUMNS finite
    assert {"bound_respected", "eff_intensity"} <= set(header)
    for row in res.rows:
        assert all(math.isfinite(row[k]) for k in header if k not in BENCH["TEXT_COLUMNS"])


def test_check_all_covers_every_group(tmp_path, capsys):
    reps = BENCH["SIZES"]["check-all"][1]["reps"]
    assert main(["check", "all", "--seed", str(SEED), "--reps", str(reps),
                 "--out", str(tmp_path)]) in (0, 1)
    capsys.readouterr()
    lines = (tmp_path / "validation.csv").read_text().splitlines()[2:]
    # check names may hold commas; the five fields after the name do not
    names = [line.rsplit(",", 5)[0] for line in lines]
    for group, prefixes in BENCH["GROUP_PREFIXES"].items():
        assert any(n.startswith(prefixes) for n in names), group


# the rows of check all that read the same value at every seed, each with what
# reads it; tests/test_steinbound.py asserts every such identity at the same
# tolerance or tighter, so any other deterministic row would only repeat it
DETERMINISTIC_ROWS = {
    "coarea[square,one,theta=0]": "acceptance criterion 8 reads the square's ratio",
    "coarea[disk,one,theta=0]": "acceptance criterion 8 reads the disk's ratio",
    "bound[chord_sq_unit_disk]": "check_validation fails the bounds group without a row",
}


def test_deterministic_rows_are_the_ones_read_outside_tests():
    prefixes = BENCH["GROUP_PREFIXES"]["coarea"] + BENCH["GROUP_PREFIXES"]["bounds"]
    names = [r.name for r in run_validation_suite(0, 2000) if r.name.startswith(prefixes)]
    assert names == list(DETERMINISTIC_ROWS)
