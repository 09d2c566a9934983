"""Bipartite soft matching token merging, on a whole batch at once.

One merge step removes up to r tokens from every sequence: partition each
sequence into two alternating sets A and B, draw an edge from each A token
to its most similar B token (cosine over attention keys), keep the r
highest-scoring edges, and fold each kept source into its destination by a
size-weighted mean. B tokens never disappear, so placing [CLS] in B protects
it while still letting it absorb merges. All tie-breaks are lowest-index-first
and the surviving tokens keep their original relative order, which keeps
[CLS] at index 0. Every sequence of a batch shares n and r, so the batch
stays rectangular, and each row comes out exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class ToMeConfig:
    """``r`` tokens are removed per block, clamped to the merge capacity."""

    r: int = 0
    protect_cls: bool = True

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ConfigError(f"reduction factor r must be >= 0, got {self.r}")


def merge_capacity(n_tokens: int, protect_cls: bool) -> int:
    """Most tokens one step may remove: |A|, and at least one non-protected
    token (plus [CLS] when protected) must survive."""
    n_a = n_tokens // 2 if protect_cls else (n_tokens + 1) // 2
    floor = 2 if protect_cls else 1
    return max(0, min(n_a, n_tokens - floor))


def merge_step(
    tokens: np.ndarray, sizes: np.ndarray, keys: np.ndarray, cfg: ToMeConfig
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """One partition/score/select/merge pass over [B x n x d] tokens.

    ``sizes`` is [B x n] and ``keys`` [B x n x k]. Removes min(r, capacity)
    tokens per row; r = 0 (or a sequence too small to merge) is a strict
    no-op returning the input arrays themselves. ``edges`` is (src, dst,
    sim), three [B x r] arrays in selection order (descending similarity)
    and original token indices, or None when nothing merged.
    """
    if tokens.ndim != 3 or sizes.shape != tokens.shape[:2] or (
        keys.ndim != 3 or keys.shape[:2] != tokens.shape[:2]
    ):
        raise ShapeError(
            f"tokens {tokens.shape}, sizes {sizes.shape} and keys {keys.shape} "
            "do not describe the same [B x n] sequences"
        )
    b, n, d = tokens.shape
    r = min(cfg.r, merge_capacity(n, cfg.protect_cls))
    if r <= 0:
        return tokens, sizes, None
    # Alternating split A = a0::2, B = b0::2; with protection the parity
    # flips so [CLS] lands in B.
    a0, b0 = (1, 0) if cfg.protect_cls else (0, 1)

    # Cosine similarity in float64 so edge ranking is stable against float32
    # round-off; zero-norm keys score the sentinel -1 behind every real match.
    keys = keys.astype(np.float64)
    norms = np.sqrt(np.einsum("bij,bij->bi", keys, keys))
    zero = norms == 0.0
    norms[zero] = 1.0
    unit_a = keys[:, a0::2] / norms[:, a0::2, None]
    unit_b = keys[:, b0::2] / norms[:, b0::2, None]
    sim = unit_a @ unit_b.transpose(0, 2, 1)
    sim[zero[:, a0::2]] = -1.0
    sim.transpose(0, 2, 1)[zero[:, b0::2]] = -1.0

    best_b = sim.argmax(axis=2)  # first max: lowest B position on ties
    best_sim = np.take_along_axis(sim, best_b[..., None], axis=2)[..., 0]
    order = np.argsort(-best_sim, axis=1, kind="stable")[:, :r]  # lower A first
    src = 2 * order + a0
    dst = 2 * np.take_along_axis(best_b, order, axis=1) + b0
    edges = (src, dst, np.take_along_axis(best_sim, order, axis=1))

    # Fold sources into destinations on flattened b*n + index rows: x_d
    # becomes x_d + sum(s_a * (x_a - x_d)) / s_new, summed in edge order.
    # This delta form keeps merging identical vectors exactly idempotent and
    # conserves the total size mass.
    row = np.arange(b)[:, None] * n
    fsrc, fdst = (src + row).ravel(), (dst + row).ravel()
    flat, flat_sizes = tokens.reshape(b * n, d), sizes.reshape(b * n)
    dest, slot = np.unique(fdst, return_inverse=True)
    delta = np.zeros((dest.size, d), dtype=np.float32)
    np.add.at(delta, slot, flat_sizes[fsrc, None] * (flat[fsrc] - flat[fdst]))
    gain = np.zeros(dest.size, dtype=np.float32)
    np.add.at(gain, slot, flat_sizes[fsrc])

    keep = np.ones(b * n, dtype=bool)
    keep[fsrc] = False
    at = np.cumsum(keep)[dest] - 1  # destination rows among the survivors
    merged, new_sizes = flat[keep], flat_sizes[keep]
    merged += np.float32(0.0)  # untouched rows are x + 0 as well: -0.0 -> +0.0
    new_sizes[at] += gain
    merged[at] = flat[dest] + delta / new_sizes[at, None]
    return merged.reshape(b, n - r, d), new_sizes.reshape(b, n - r), edges
