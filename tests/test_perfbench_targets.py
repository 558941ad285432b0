"""The benchmark's tracer swaps functions of ``hopes`` by name, from
outside the package; a name removed from ``src/`` would break its traced
runs without failing any other test."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    traced = runpy.run_path(str(TRACING))["TRACED"]  # read, never written
    assert traced
    for module, attr, _name, _counter in traced:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
