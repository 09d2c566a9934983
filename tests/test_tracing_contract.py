"""The traced benchmark run (perfbench/tracing.py) wraps package functions
by (module, attribute) name. A rename or removal there silently drops a
layer from the per-layer metrics, so every name must still resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_span_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SPAN_TABLE


def test_every_traced_name_resolves_to_a_callable():
    table = load_span_table()
    assert table
    missing = [
        f"astmerge.{module}.{attr}"
        for module, attr, _ in table
        if not callable(getattr(importlib.import_module(f"astmerge.{module}"), attr, None))
    ]
    assert missing == []
