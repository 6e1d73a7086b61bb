"""Seed-0 regression: the in-memory rows of three small sweeps and of the
validation suite at reps 2000 must match tests/data/golden_seed0.json.

Text and integer fields match exactly, floats to 1e-12 relative.  A change
that moves random draws on purpose regenerates the data with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
import math
from pathlib import Path

import pytest

from coxsim.geometry import Disk, Rect
from coxsim.harness import ExperimentConfig, run_experiment, run_validation_suite

DATA = Path(__file__).resolve().parent / "data" / "golden_seed0.json"

SWEEPS = {
    "cox-line": ExperimentConfig("cox-line", 1.0, (5.0, 10.0, 20.0, 40.0), 1000, 0,
                                 window=Disk((0.0, 0.0), 1.0)),
    # a window neither square nor at the origin pins the Rect sampler, chord
    # and region grid
    "cox-line-rect": ExperimentConfig("cox-line", 1.0, (5.0, 10.0, 20.0, 40.0), 1000, 0,
                                      window=Rect(-0.5, 0.0, 1.5, 1.0)),
    "satellites": ExperimentConfig("satellites", 2.0, (10.0, 20.0, 40.0, 80.0),
                                   1000, 0),
}


def _experiment(cfg: ExperimentConfig) -> dict:
    res = run_experiment(cfg)
    rows = [{k: v for k, v in row.items() if not k.startswith("_")}
            for row in res.rows]
    # a sweep with a zero headline distance has no rate fit, only its error
    fit = None if res.fit is None else {
        "params": [float(row["param"]) for row in rows],
        "distances": [float(row["w_distance"]) for row in rows],
        "slope": res.fit.slope, "intercept": res.fit.intercept,
        "r_squared": res.fit.r_squared}
    return {"rows": rows, "fit": fit, "fit_error": res.fit_error}


def _validation() -> list:
    return [{**vars(r), "passed": bool(r.passed)}
            for r in run_validation_suite(0, 2000)]


def _assert_same(actual, expected, path="."):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), (path, actual)
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), \
            (path, actual, expected)
    else:
        assert not isinstance(actual, float) and actual == expected, \
            (path, actual, expected)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(SWEEPS))
def test_experiment_seed0(golden, key):
    _assert_same(_experiment(SWEEPS[key]), golden[key])


@pytest.fixture(scope="module")
def validation():
    return _validation()


def test_validation_seed0(golden, validation):
    _assert_same(validation, golden["validation"])


def test_validation_seed0_key_order(golden, validation):
    # regenerating the data must not reorder the committed keys
    assert [list(row) for row in validation] == [list(row) for row in golden["validation"]]


if __name__ == "__main__":
    data = {key: _experiment(cfg) for key, cfg in SWEEPS.items()}
    data["validation"] = _validation()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {DATA}")
