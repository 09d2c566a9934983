"""The traced benchmark run (perfbench/tracing.py) wraps package functions
by (module, attribute) name. A rename or removal there silently drops a
layer from the per-layer metrics, so every name must still resolve, and
every counter must still read the right figures off a real call."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from astmerge import ToMeConfig, transformer
from astmerge.tome import merge_capacity

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves_to_a_callable():
    table = load_tracing().SPAN_TABLE
    assert table
    missing = [
        f"astmerge.{module}.{attr}"
        for module, attr, _ in table
        if not callable(getattr(importlib.import_module(f"astmerge.{module}"), attr, None))
    ]
    assert missing == []


def test_counters_read_real_calls(tiny_model, pool):
    tracing = load_tracing()
    assert set(tracing.COUNTERS) == {"transformer.attention_batch", "transformer._merge_batch"}
    b, n = 3, tiny_model.n_tokens
    rng = np.random.default_rng(0)
    tokens = rng.standard_normal((b, n, tiny_model.config.embed_dim)).astype(np.float32)
    sizes = np.ones((b, n), np.float32)
    r_values = (0, 2, n)  # r = n is clamped to the merge capacity

    tracer = tracing.Tracer()
    tracer.install({"transformer": transformer})
    try:
        _, keys = transformer.attention_batch(
            tokens, sizes, tiny_model.blocks[0], tiny_model.config.n_heads, pool
        )
        for r in r_values:
            transformer._merge_batch(tokens, sizes, keys, ToMeConfig(r=r), pool)
    finally:
        tracer.uninstall()

    assert tracer.counter_errors == []
    counts = {}
    for span in tracer.spans:
        if span.counts is not None:
            counts.setdefault(span.name, []).append(span.counts)
    assert counts["transformer.attention_batch"] == [{"tokens": b * n}]
    assert counts["transformer._merge_batch"] == [
        {"removed": b * min(r, merge_capacity(n)), "requested": b * r}
        for r in r_values
    ]


def test_layer_norm_spans_nest_in_both_sublayers(small_model):
    """Every LayerNorm goes through transformer.layer_norm, so the traced
    run charges it to its own layer from inside attention and MLP alike,
    and attention still counts the whole batch once per block."""
    tracing = load_tracing()
    b, n = 3, small_model.n_tokens
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal((b, n, small_model.config.embed_dim)).astype(np.float32)
    sizes = np.ones((b, n), np.float32)

    tracer = tracing.Tracer()
    tracer.install({"transformer": transformer})
    try:
        _, counts = transformer.encoder_forward_batch(
            tokens, sizes, small_model, ToMeConfig(r=5)
        )
    finally:
        tracer.uninstall()

    assert tracer.counter_errors == []
    names = [span.name for span in tracer.spans]
    ln_parents = {
        names[span.parent] for span in tracer.spans if span.name == "transformer.layer_norm"
    }
    assert {"transformer.attention_batch", "transformer.mlp_batch"} <= ln_parents
    attn = [s.counts for s in tracer.spans if s.name == "transformer.attention_batch"]
    assert attn == [{"tokens": b * c} for c in counts[:-1]]
