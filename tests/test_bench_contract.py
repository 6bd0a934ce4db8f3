"""The benchmark's span tracer wraps library functions by name; they must keep existing.

``bench/spans.py`` replaces the functions named in its ``WRAPPED`` table, plus
``ExecutionGraph.hb`` and the ``ExecutionGraph._succ_masks`` cached property,
with counting wrappers.  Removing or renaming one of them breaks every traced
benchmark run, so this test reads the table and looks each name up.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

from rareach.graph import ExecutionGraph


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in SPANS.WRAPPED.items() for name in names])
def test_wrapped_function_exists(layer, name):
    assert layer in SPANS.MODULES
    assert callable(getattr(importlib.import_module(f"rareach.{layer}"), name, None))


def test_graph_hooks_exist():
    assert callable(ExecutionGraph.__dict__.get("hb"))
    assert isinstance(ExecutionGraph.__dict__.get("_succ_masks"), cached_property)
