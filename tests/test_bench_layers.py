"""Every function the benchmark tracer wraps must exist.

perfbench/tracer.py names, per module of the package, the functions it
times (LAYERS) and raises when one is missing, so a rename would only
show up as a crash of a traced benchmark run.  This reads LAYERS from
the tracer's source without importing it.  A per-layer metric
`<layer>.<fn>.hits` in BENCHMARK.json counts cache hits, so its function
must be traced and keep its cache: without one the metric reads 0.
"""

import ast
import importlib
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _hit_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]
            if m["name"].endswith(".hits")]


def test_hit_metrics_name_cached_traced_functions():
    metrics = _hit_metrics()
    assert metrics
    for metric in metrics:
        layer, fn, _ = metric.split(".")
        assert fn in LAYERS[layer], metric
        module = importlib.import_module("resposet." + layer)
        assert hasattr(getattr(module, fn), "cache_info"), metric
