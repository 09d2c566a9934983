"""Bipartite soft matching token merging, one clip at a time on the pool.

One merge step removes up to r tokens from every sequence: partition each
sequence into the odd positions A and the even positions B, draw an edge
from each A token to its most similar B token (cosine over attention keys),
keep the r highest-scoring edges, and fold each kept source into its
destination by a size-weighted mean. B tokens never disappear, so [CLS] at
index 0 is never merged away but still absorbs merges. All tie-breaks are
lowest-index-first and the surviving tokens keep their original relative
order, which keeps [CLS] at index 0. Each clip is scored, selected and
folded on its own by one worker of the encoder's pool; every clip of a batch
shares n and r, so the batch stays rectangular, and each row comes out
exactly as it would alone.
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

    # One clip at a time, split over the workers of ``pool``: the float64
    # working set stays cache-sized, and each clip writes its survivors,
    # sizes and edges into arrays made once per call. ``sample_pool``'s
    # one-thread BLAS keeps the similarity bits independent of BLAS threads.
    out = np.empty((b, n - r, d), dtype=tokens.dtype)
    out_sizes = np.empty((b, n - r), dtype=sizes.dtype)
    edges = (np.empty((b, r), np.intp), np.empty((b, r), np.intp), np.empty((b, r)))
    n_a, cols = n // 2, np.arange(d)

    def merge_clip(i: int) -> None:
        # A = 1::2 are the sources, B = 0::2 the destinations, [CLS] among them.
        # Cosine similarity in float64 so edge ranking is stable against float32
        # round-off; zero-norm keys score the sentinel -1 behind every real match.
        k64 = keys[i].astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", k64, k64))
        zero = norms == 0.0
        norms[zero] = 1.0
        sim = (k64[1::2] / norms[1::2, None]) @ (k64[0::2] / norms[0::2, None]).T
        sim[zero[1::2]] = -1.0
        sim[:, zero[0::2]] = -1.0
        best = sim.argmax(axis=1)  # first max: lowest B position on ties
        best_sim = sim[np.arange(n_a), best]
        order = np.argsort(-best_sim, kind="stable")[:r]  # lower A first
        src, dst = 2 * order + 1, 2 * best[order]
        edges[0][i], edges[1][i], edges[2][i] = src, dst, best_sim[order]
        # Fold sources into destinations: x_d becomes x_d + sum(s_a * (x_a - x_d)) /
        # s_new, summed in edge order. The delta form keeps merging identical vectors
        # exactly idempotent and conserves the size mass. ``np.add.at`` adds in index
        # order, so each sum runs in edge order; the 1-D form on the flat [n*d] delta
        # is the fast one. Every row is x + delta / s_new, so an untouched row is x +
        # 0/s = x + 0.0 (-0.0 -> +0.0). That needs sizes > 0, which the encoder keeps:
        # they start at 1 and only grow.
        x, mass = tokens[i], sizes[i, src]
        delta = np.zeros((n, d), dtype=np.float32)
        np.add.at(
            delta.reshape(-1), (dst[:, None] * d + cols).ravel(),
            (mass[:, None] * (x[src] - x[dst])).ravel(),
        )
        gain = np.zeros(n, dtype=np.float32)
        np.add.at(gain, dst, mass)
        gain += sizes[i]
        np.divide(delta, gain[:, None], out=delta)
        np.add(x, delta, out=delta)
        keep = np.ones(n, dtype=bool)
        keep[src] = False
        np.compress(keep, delta, axis=0, out=out[i])  # no clip-sized temporary
        out_sizes[i] = gain[keep]

    def merge(_: int, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            merge_clip(i)  # a call per clip: its temporaries are freed before the next

    pool.split(merge, b)
    return out, out_sizes, edges
