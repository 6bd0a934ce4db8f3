"""The benchmark uses library and test names; they must keep existing.

``bench/spans.py`` replaces the functions named in its ``WRAPPED`` table, plus
``ExecutionGraph.hb`` and the ``ExecutionGraph._succ_masks`` cached property,
with counting wrappers.  Removing or renaming one of them breaks every traced
benchmark run, so this test reads the table and looks each name up.  Every
other name ``bench/*.py`` takes from ``rareach`` or ``tests`` (imported names
and attributes of imported modules) is found with ``ast`` and looked up too.
"""

import ast
import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

from rareach.graph import ExecutionGraph

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    path = BENCH / "spans.py"
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


def imported_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name ``source`` takes from rareach or tests.

    An imported module's attribute uses count in the scope that imports it:
    the whole file for a top-level import, else the importing function.
    """
    tree = ast.parse(source)
    found: set[tuple[str, str]] = set()
    for scope in ast.walk(tree):
        if isinstance(scope, ast.Module):
            imports = scope.body
        elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = list(ast.walk(scope))
        else:
            continue
        aliases = {}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("rareach", "tests"):
                for alias in node.names:
                    found.add((node.module, alias.name))
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                found.update(tuple(a.name.rsplit(".", 1)) for a in node.names if a.name.startswith(("rareach.", "tests.")))
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
    return found


BENCH_NAMES = sorted({pair for path in BENCH.glob("*.py") for pair in imported_names(path.read_text())})


def test_imported_names_sees_attributes():
    source = (
        "from rareach.graph import graph_from_json\n"
        "def f():\n"
        "    from tests import corpus\n"
        "    return corpus.LOOPY_RMW\n"
        "def g(corpus):\n"
        "    return corpus.count\n"
    )
    assert imported_names(source) == {
        ("rareach.graph", "graph_from_json"),
        ("tests", "corpus"),
        ("tests.corpus", "LOOPY_RMW"),
    }


@pytest.mark.parametrize("module,name", BENCH_NAMES, ids=[f"{m}.{n}" for m, n in BENCH_NAMES])
def test_bench_name_exists(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None
