"""The names the benchmark's per-layer metrics read still exist in the package.

`schurbench/tracer.py` wraps only the public names of each module, and
`schurbench/run.py` reports a memo only while its function has
`cache_info()`; a renamed, privatised or unmemoised function would drop
a metric from the traced run without any error.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "schurbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")  # puts schurbench/ on sys.path for its own imports
tracer = _load("tracer")


def _traced(key: str):
    """The package object a `<module>.<name>` metric key names, if the tracer wraps it."""
    layer, name = key.split(".")
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    assert name in tracer._public_names(module), key
    obj = getattr(module, name)
    assert obj.__module__ == module.__name__ and obj.__name__ == name, key
    return obj


def test_every_named_metric_reads_a_public_package_name():
    for key in run.CALL_METRICS + run.SELF_METRICS:
        assert callable(_traced(key)), key
    for key in run.NEW_METRICS:
        assert isinstance(_traced(key), type), key
    for key in run.MEMO_METRICS + ("orderlab.fiber_X",):
        assert hasattr(_traced(key), "cache_info"), key


def test_per_layer_report_covers_every_declared_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    memos = {key: {"hits": 0, "misses": 0, "size": 0}
             for key in run.MEMO_METRICS + ("orderlab.fiber_X",)}
    merged = {"names": {}, "memos": memos, "wall_s": 0.0, "in_spans_s": 0.0}
    assert set(run.per_layer(merged, 0.0)) == declared
    assert len(declared) == 57
