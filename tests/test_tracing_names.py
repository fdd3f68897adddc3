"""The benchmark tracer wraps gridlines functions by name; each must exist.

perfbench/tracing.py lists them in LAYERS as (module, attribute, span,
counter) tuples.  The file is parsed, not imported, so this checks the
names without installing the tracer.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def layer_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no LAYERS list in {TRACING}")


def test_every_traced_name_resolves():
    names = layer_names()
    assert names
    for module, attribute in names:
        target = importlib.import_module(f"gridlines.{module}")
        assert callable(reduce(getattr, attribute.split("."), target)), (module, attribute)
