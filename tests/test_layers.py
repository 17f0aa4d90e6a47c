"""The benchmark's traced layers name functions that exist.

``perfbench/spans.py`` wraps every function in its ``LAYERS`` by name, so
deleting or renaming one breaks the traced benchmark run; this test makes
the same change fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:
        module, name = layer.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"),
                     name, None)
        assert callable(fn), layer
