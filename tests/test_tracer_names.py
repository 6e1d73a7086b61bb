"""The benchmark's tracer wraps coxsim functions by (module, name).  A rename
in the package would otherwise show up only when the benchmark runs."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without importing it as a module, so no
# bytecode cache is written next to it
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1]
                             / "perfbench" / "tracing.py"))


@pytest.mark.parametrize("module,func", [(m, f) for m, f, _ in TRACING["LAYERS"]])
def test_layer_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"coxsim.{module}"), func, None))
