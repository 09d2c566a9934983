"""Span tracing from outside the package.

The traced run replaces the functions named in SPAN_TABLE with wrappers
that record a span per call: name, layer, start, end, the span that caused
it and the request it belongs to. Each function is replaced on the module
whose code calls it (``bench.softmax``, not ``head.softmax``), because that
module's global lookup is what the call goes through. A name that a later
refactor removed is reported as absent and its time stays in the parent
span's self time; nothing crashes.

Spans are kept in memory and aggregated when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, layer). The layer is the metric prefix the span's self
# time is charged to.
SPAN_TABLE = (
    ("bench", "run_inference", "bench"),
    ("bench", "_forward_all", "bench"),
    ("bench", "load_inputs", "features"),
    ("bench", "read_wav", "features"),
    ("bench", "compute_log_mel", "features"),
    ("bench", "load_spec", "features"),
    ("bench", "fit_frames", "features"),
    ("bench", "forward_spectrograms", "transformer.encoder"),
    ("transformer", "encoder_forward_batch", "transformer.encoder"),
    ("transformer", "attention_batch", "transformer.attn"),
    ("transformer", "mlp_batch", "transformer.mlp"),
    ("transformer", "layer_norm", "transformer.layer_norm"),
    ("transformer", "_merge_batch", "tome.merge"),
    ("transformer", "merge_step", "tome.merge"),
    ("transformer", "tokens_from_spectrogram", "patchify"),
    ("transformer", "extract_patches", "patchify"),
    ("transformer", "embed_patches", "patchify"),
    ("transformer", "add_positional_and_cls", "patchify"),
    ("bench", "_predict", "head"),
    ("bench", "softmax", "head"),
    ("bench", "sigmoid", "head"),
    ("bench", "_metrics", "head"),
    ("bench", "accuracy", "head"),
    ("bench", "mean_average_precision", "head"),
    ("bench", "argmax_in_positives", "head"),
    ("kd", "kd_loss", "kd"),
    ("kd", "kd_loss_grad", "kd"),
    ("model_io", "load_model", "model_io"),
    ("model_io", "load_manifest", "model_io"),
)


def _attention_counts(args, kwargs, result) -> dict[str, int]:
    x = args[0]
    return {"tokens": int(x.shape[0] * x.shape[1])}


def _merge_counts(args, kwargs, result) -> dict[str, int]:
    tokens, cfg = args[0], args[3]
    return {
        "removed": int(tokens.shape[0] * (tokens.shape[1] - result[0].shape[1])),
        "requested": int(tokens.shape[0] * cfg.r),
    }


# Counts recorded at a span boundary, from the call's arguments and result.
COUNTERS = {
    "transformer.attention_batch": _attention_counts,
    "transformer._merge_batch": _merge_counts,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int | None
    counts: dict[str, int] | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    counter_errors: list[str] = field(default_factory=list)
    request: int | None = None
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every SPAN_TABLE entry found in ``modules``; record the rest."""
        self.absent = []
        for mod_name, attr, layer in SPAN_TABLE:
            name = f"{mod_name}.{attr}"
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, self.request, None)
            if counter is not None:
                try:
                    spans[idx].counts = counter(args, kwargs, result)
                except Exception as e:  # a changed signature must not stop the run
                    self.counter_errors.append(f"{name}: {type(e).__name__}: {e}")
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]
