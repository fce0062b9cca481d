"""Every function the benchmark tracer wraps must exist.

perfbench/tracer.py names, per module of the package, the functions it
times (LAYERS) and raises when one is missing, so a rename would only
show up as a crash of a traced benchmark run.  This reads LAYERS from
the tracer's source without importing it.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _layers():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment in %s" % TRACER)


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_functions_exist(layer):
    module = importlib.import_module("resposet." + layer)
    missing = [name for name in LAYERS[layer]
               if not callable(getattr(module, name, None))]
    assert missing == []
