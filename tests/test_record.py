"""Record, the base of coxsim's value types: frozen fields, equality and hash
by type and field values, the dataclass repr, and replace() that validates
again; and what importing the CLI loads."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from coxsim import harness
from coxsim.diagnostics import DistanceEstimate
from coxsim.geometry import Annulus, Disk, LatitudeBand, Rect
from coxsim.glauber import GlauberSpec
from coxsim.harness import CheckRow, ConfigError, ExperimentConfig, ExperimentResult
from coxsim.pointprocess import ReplicateBatch
from coxsim.record import Record

MODULES = ("cli", "harness", "coxmodels", "pointprocess", "diagnostics",
           "glauber", "steinbound", "geometry")


class Pair(Record):
    a: float
    b: float = 2.0


class OtherPair(Record):
    a: float
    b: float = 2.0


class TestFields:
    def test_positional_keyword_and_default(self):
        assert Pair(1.0) == Pair(1.0, 2.0) == Pair(b=2.0, a=1.0)
        assert (Pair(1.0).a, Pair(1.0).b) == (1.0, 2.0)
        assert Pair._fields == ("a", "b")

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"a": 1.0}), ((1.0,), {"c": 3.0})],
        ids=["missing", "too-many", "twice", "unknown"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_assigning_or_deleting_a_field_raises(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'x0'"):
            rect.x0 = 2.0
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'x0'"):
            del rect.x0
        with pytest.raises(AttributeError):
            rect.other = 1.0
        assert rect == Rect(0.0, 0.0, 1.0, 1.0)

    def test_experiment_result_is_frozen(self):
        result = ExperimentResult(ExperimentConfig("satellites"))
        assert result.rows == () and result.fit is None and result.fit_error == ""
        with pytest.raises(AttributeError):
            result.wall_seconds = 1.0


class TestEquality:
    def test_a_record_is_not_its_field_tuple(self):
        rect = Rect(0, 0, 1, 1)
        assert rect != (0, 0, 1, 1) and (0, 0, 1, 1) != rect
        assert not rect == (0, 0, 1, 1)

    def test_types_with_equal_values_differ(self):
        assert Pair(1.0) != OtherPair(1.0)
        assert len({Pair(1.0): 0, OtherPair(1.0): 1}) == 2

    def test_equal_values_hash_alike(self):
        assert Rect(0, 0, 1, 1) == Rect(0.0, 0.0, 1.0, 1.0)
        assert hash(Rect(0, 0, 1, 1)) == hash(Rect(0.0, 0.0, 1.0, 1.0))
        assert Disk([0.0, 0.5], 0.5) == Disk((0.0, 0.5), 0.5)
        assert hash(Disk([0.0, 0.5], 0.5)) == hash(Disk((0.0, 0.5), 0.5))
        assert Rect(0, 0, 1, 1) != Rect(0, 0, 1, 2)

    def test_equal_regions_share_a_cache_entry(self):
        # a list center is stored as a tuple, so it keys the same entry
        b = ReplicateBatch.tile(np.array([[0.25, 0.5], [0.75, 0.5]]), 3)
        for make in (lambda: Rect(0.0, 0.0, 0.5, 1.0), lambda: Disk([0.25, 0.5], 0.1),
                     lambda: Annulus([0, 0.5], 0.5, 1.0)):
            first = b.counts(make())
            size = len(b._cache)
            assert b.counts(make()) is first and len(b._cache) == size
            assert b.membership(make()) is b.membership(make())
            assert np.array_equal(first, [1, 1, 1])


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        row = CheckRow("a", 1.0, 2.0, 0.5, 3)
        assert row.replace(rhs=1.0) == CheckRow("a", 1.0, 1.0, 0.5, 3)
        assert row.replace() == row and row.replace() is not row
        with pytest.raises(TypeError):
            row.replace(other=1.0)

    @pytest.mark.parametrize("record, change, direct", [
        (Rect(0, 0, 1, 1), {"x1": -1.0}, lambda: Rect(0, 0, -1.0, 1)),
        (Disk((0, 0), 1.0), {"radius": 0.0}, lambda: Disk((0, 0), 0.0)),
        (LatitudeBand(-0.5, 0.5), {"z_hi": -0.5}, lambda: LatitudeBand(-0.5, -0.5)),
        (DistanceEstimate(0.5, 0.1, "a"), {"value": -1.0},
         lambda: DistanceEstimate(-1.0, 0.1, "a")),
        (GlauberSpec(Rect(0, 0, 1, 1), 1.0), {"lam": 0.0},
         lambda: GlauberSpec(Rect(0, 0, 1, 1), 0.0)),
        (ExperimentConfig("satellites"), {"reps": 10},
         lambda: ExperimentConfig("satellites", reps=10)),
    ], ids=["rect", "disk", "band", "distance", "glauber", "config"])
    def test_replace_validates_again(self, record, change, direct):
        with pytest.raises(ValueError) as expected:
            direct()
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            record.replace(**change)

    def test_replace_starts_an_empty_cache(self):
        b = ReplicateBatch.tile(np.array([[0.25, 0.5]]), 2)
        b.counts()
        assert b._cache and b.replace()._cache == {}

    def test_config_replace_keeps_derived_defaults(self):
        cfg = ExperimentConfig("cox-line")
        assert cfg.replace(seed=4) == ExperimentConfig("cox-line", seed=4)
        with pytest.raises(ConfigError, match="sweep values must be strictly increasing"):
            cfg.replace(sweep=(4.0, 3.0, 5.0, 6.0))


class TestRepr:
    def test_dataclass_format(self):
        assert repr(Rect(0.0, 0.0, 1.0, 0.5)) == "Rect(x0=0.0, y0=0.0, x1=1.0, y1=0.5)"
        assert repr(Disk([0.0, 0.5], 0.5)) == "Disk(center=(0.0, 0.5), radius=0.5)"
        assert repr(CheckRow("a", 1.0, 2.0, 0.5, 3)) == (
            "CheckRow(name='a', lhs=1.0, rhs=2.0, stderr=0.5, seed=3, one_sided=False)")
        assert repr(Pair(1)) == "Pair(a=1, b=2.0)"

    def test_disk_error_shows_the_repr(self):
        with pytest.raises(ValueError, match=re.escape(": Disk(center=(0.0, 0.0), radius=-1.0)")):
            Disk((0.0, 0.0), -1.0)

    def test_batch_repr_hides_the_cache(self):
        b = ReplicateBatch.tile(np.array([[0.25, 0.5]]), 2)
        b.counts()
        text = repr(b)
        assert text.startswith("ReplicateBatch(points=array(") and text.endswith(", reps=2)")
        assert "_cache" not in text and "rep_ids=array([0, 1])" in text


def test_cli_import_loads_every_module_but_not_dataclasses_or_numpy_random():
    """Importing the CLI loads all eight coxsim modules up front, no
    dataclasses (only coxsim ever imported it) and not numpy.random.  The
    benchmark's setup_s times this import; deferring a coxsim module, or
    pulling numpy.random's import (11-17 ms) forward into it, would only move
    cost between setup_s, run_s and max_unit_s, not remove it."""
    code = ("import json, sys\n"
            "import coxsim.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded
    assert {f"coxsim.{m}" for m in MODULES} <= loaded
    assert "numpy" in loaded and "numpy.random" not in loaded
