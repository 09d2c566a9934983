"""Bipartite soft matching token merging, on a whole batch at once.

One merge step removes up to r tokens from every sequence: partition each
sequence into the odd positions A and the even positions B, draw an edge
from each A token to its most similar B token (cosine over attention keys),
keep the r highest-scoring edges, and fold each kept source into its
destination by a size-weighted mean. B tokens never disappear, so [CLS] at
index 0 is never merged away but still absorbs merges. All tie-breaks are
lowest-index-first and the surviving tokens keep their original relative
order, which keeps [CLS] at index 0. Every sequence of a batch shares n and
r, so the batch stays rectangular, and each row comes out exactly as it
would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .pool import SamplePool


@dataclass(frozen=True)
class ToMeConfig:
    """``r`` tokens are removed per block, clamped to the merge capacity;
    [CLS] is always kept."""

    r: int = 0

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ConfigError(f"reduction factor r must be >= 0, got {self.r}")


def merge_capacity(n_tokens: int) -> int:
    """Most tokens one step may remove: |A|, and [CLS] plus at least one
    other token must survive."""
    return max(0, min(n_tokens // 2, n_tokens - 2))


def merge_step(
    tokens: np.ndarray, sizes: np.ndarray, keys: np.ndarray, cfg: ToMeConfig,
    pool: SamplePool,
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
    r = min(cfg.r, merge_capacity(n))
    if r <= 0:
        return tokens, sizes, None

    # A = 1::2 are the sources, B = 0::2 the destinations, [CLS] among them.
    # Cosine similarity in float64 so edge ranking is stable against float32
    # round-off; zero-norm keys score the sentinel -1 behind every real match.
    # One sample at a time, split over the workers of ``pool``: the float64
    # working set stays cache-sized and no batch-sized temporary is made.
    # The pool comes from ``sample_pool``, whose one-thread BLAS keeps the
    # similarity bits independent of the BLAS thread count.
    n_a = n // 2
    best_b = np.empty((b, n_a), dtype=np.intp)
    best_sim = np.empty((b, n_a))

    def score(_: int, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            k64 = keys[i].astype(np.float64)
            norms = np.sqrt(np.einsum("ij,ij->i", k64, k64))
            zero = norms == 0.0
            norms[zero] = 1.0
            sim = (k64[1::2] / norms[1::2, None]) @ (k64[0::2] / norms[0::2, None]).T
            sim[zero[1::2]] = -1.0
            sim[:, zero[0::2]] = -1.0
            best_b[i] = sim.argmax(axis=1)  # first max: lowest B position on ties
            best_sim[i] = sim[np.arange(n_a), best_b[i]]

    pool.split(score, b)
    order = np.argsort(-best_sim, axis=1, kind="stable")[:, :r]  # lower A first
    src = 2 * order + 1
    dst = 2 * np.take_along_axis(best_b, order, axis=1)
    edges = (src, dst, np.take_along_axis(best_sim, order, axis=1))

    # Fold sources into destinations on flattened b*n + index rows: x_d
    # becomes x_d + sum(s_a * (x_a - x_d)) / s_new, summed in edge order.
    # This delta form keeps merging identical vectors exactly idempotent and
    # conserves the total size mass. Each destination's sums start from zero
    # and ``np.add.at`` adds in index order, so they run in edge order; the
    # 1-D form on the flat [m*d] delta is the fast one.
    row = np.arange(b)[:, None] * n
    fsrc, fdst = (src + row).ravel(), (dst + row).ravel()
    flat, flat_sizes = tokens.reshape(b * n, d), sizes.reshape(b * n)
    dest, slot = np.unique(fdst, return_inverse=True)
    mass = flat_sizes[fsrc]
    delta = np.zeros((dest.size, d), dtype=np.float32)
    np.add.at(
        delta.reshape(-1), (slot[:, None] * d + np.arange(d)).ravel(),
        (mass[:, None] * (flat[fsrc] - flat[fdst])).ravel(),
    )
    gain = np.zeros(dest.size, dtype=np.float32)
    np.add.at(gain, slot, mass)

    keep = np.ones(b * n, dtype=bool)
    keep[fsrc] = False
    at = np.cumsum(keep)[dest] - 1  # destination rows among the survivors
    merged, new_sizes = flat[keep], flat_sizes[keep]
    merged += np.float32(0.0)  # untouched rows are x + 0 as well: -0.0 -> +0.0
    new_sizes[at] += gain
    merged[at] = flat[dest] + delta / new_sizes[at, None]
    return merged.reshape(b, n - r, d), new_sizes.reshape(b, n - r), edges
