"""Pre-norm transformer encoder with token merging between attention and MLP.

Each block runs multi-head self-attention on LayerNormed tokens, merges the
``r`` most similar token pairs using that block's attention keys, then runs
the GELU MLP on what survives. Attention logits toward key j carry an
ln(size_j) offset (proportional attention) so a merged token attends and is
attended to exactly as strongly as its constituents would be; with all sizes
at 1 the offset is exactly zero and the block is a plain pre-norm ViT block.

The compute path is batched ([B x n x d]) float32; ``encoder_forward``
wraps batch size 1 for single-sequence callers. Merge decisions are
per-sample but made for the whole batch at once; every sample shares n and
r, so counts stay aligned and the batch never ragged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .features import SpectrogramConfig, fit_frames, frames_for_duration
from .head import TASK_KINDS, HeadWeights
from .patchify import (
    EmbeddingWeights,
    PatchConfig,
    TokenSequence,
    add_positional_and_cls,
    embed_patches,
    extract_patches,
    patch_count,
)
from .tome import ToMeConfig, merge_capacity, merge_step

LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 12
    embed_dim: int = 192
    n_heads: int = 3
    mlp_ratio: float = 4.0
    clip_seconds: float = 5.0
    n_classes: int = 50
    task_kind: str = "single-label"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(
                f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}"
            )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def hidden_dim(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))


@dataclass
class BlockWeights:
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    qkv: np.ndarray  # [d x 3d]
    qkv_bias: np.ndarray  # [3d]
    proj: np.ndarray  # [d x d]
    proj_bias: np.ndarray  # [d]
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    mlp_in: np.ndarray  # [d x hidden]
    mlp_in_bias: np.ndarray  # [hidden]
    mlp_out: np.ndarray  # [hidden x d]
    mlp_out_bias: np.ndarray  # [d]


@dataclass
class ModelWeights:
    """Everything needed to run one model end to end."""

    config: ModelConfig
    spec_config: SpectrogramConfig
    patch_config: PatchConfig
    embedding: EmbeddingWeights
    blocks: list[BlockWeights]
    final_ln_gain: np.ndarray
    final_ln_bias: np.ndarray
    head: HeadWeights
    norm_mean: float = 0.0
    norm_std: float = 1.0

    def __post_init__(self) -> None:
        # forward_spectrograms divides by norm_std
        if not (math.isfinite(self.norm_mean) and math.isfinite(self.norm_std)
                and self.norm_std > 0.0):
            raise ConfigError(
                f"norm_mean must be finite and norm_std finite and > 0, got "
                f"{self.norm_mean} and {self.norm_std}"
            )
        c = self.config.n_classes
        if self.head.linear.shape[-1:] != (c,) or self.head.bias.shape != (c,):
            raise ShapeError(
                f"head weights {self.head.linear.shape} and bias "
                f"{self.head.bias.shape} do not give the model's {c} classes"
            )

    @property
    def expected_frames(self) -> int:
        return frames_for_duration(
            self.config.clip_seconds, self.spec_config.frames_per_second
        )

    @property
    def n_tokens(self) -> int:
        return patch_count(self.config.clip_seconds, self.patch_config) + 1


@dataclass
class MergeTraceEntry:
    """Size and centroid bookkeeping around one block's merge (float64)."""

    block: int
    size_sum_before: float
    size_sum_after: float
    centroid_before: np.ndarray
    centroid_after: np.ndarray


@dataclass
class EncoderOutput:
    cls_embedding: np.ndarray
    final_token_count: int
    per_block_counts: list[int]
    merge_trace: list[MergeTraceEntry] = field(default_factory=list)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True, dtype=np.float32)
    return centered / np.sqrt(var + np.float32(LN_EPS)) * gain + bias


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh form; erf ufuncs are an order of magnitude slower on this path.
    # In-place scalar chain: one temporary for the whole array.
    y = x * x
    y *= x
    y *= np.float32(0.044715)
    y += x
    y *= np.float32(math.sqrt(2.0 / math.pi))
    np.tanh(y, out=y)
    y += np.float32(1.0)
    y *= x
    y *= np.float32(0.5)
    return y


def attention_batch(
    x: np.ndarray, sizes: np.ndarray, w: BlockWeights, n_heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Residual attention sub-layer on a [B x n x d] batch.

    Returns the updated tokens and the head-averaged key features
    [B x n x head_dim] the merge step scores similarity on. One head's
    attention matrix at a time lives in a reused [n x n] scratch so the
    score GEMM, softmax and value GEMM all run cache-hot.
    """
    b, n, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"embed dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    h = layer_norm(x, w.ln1_gain, w.ln1_bias)
    qkv = (h.reshape(b * n, d) @ w.qkv + w.qkv_bias).reshape(b, n, 3 * d)
    qkv[..., :d] *= np.float32(1.0 / math.sqrt(dh))  # fold the q scale in
    proportional = bool(np.any(sizes != 1.0))
    if proportional:
        size_offset = np.log(sizes).astype(np.float32)  # [b, n]
    # Heads stay as strided views into qkv; BLAS handles the strides and the
    # per-head attention matrix lives in one reused cache-sized scratch.
    ctx = np.empty((b, n, d), dtype=np.float32)
    attn = np.empty((n, n), dtype=np.float32)
    for i in range(b):
        for j in range(n_heads):
            cols = slice(j * dh, (j + 1) * dh)
            q = qkv[i, :, cols]
            k = qkv[i, :, d + j * dh : d + (j + 1) * dh]
            v = qkv[i, :, 2 * d + j * dh : 2 * d + (j + 1) * dh]
            np.matmul(q, k.T, out=attn)
            if proportional:
                attn += size_offset[i]
            # softmax with the normalization folded into ctx: divide the
            # [n x dh] output instead of the [n x n] weights
            m = attn.max(axis=-1, keepdims=True)
            np.subtract(attn, m, out=attn)
            np.exp(attn, out=attn)
            den = attn.sum(axis=-1, keepdims=True)
            np.matmul(attn, v, out=ctx[i, :, cols])
            ctx[i, :, cols] /= den

    out = x + (ctx.reshape(b * n, d) @ w.proj + w.proj_bias).reshape(b, n, d)
    keys = qkv[:, :, d : 2 * d].reshape(b, n, n_heads, dh).mean(axis=2)
    return out, keys


_MLP_CHUNK = 1024  # rows per chunk; keeps hidden activations cache-resident


def mlp_batch(x: np.ndarray, w: BlockWeights) -> np.ndarray:
    """Residual MLP sub-layer: x + W2 gelu(W1 ln2(x)).

    Processed in row chunks so the elementwise LayerNorm/GELU passes run on
    cache-sized slabs instead of streaming the full activation through DRAM.
    """
    b, n, d = x.shape
    flat = x.reshape(b * n, d)
    out = np.empty_like(flat)
    for start in range(0, flat.shape[0], _MLP_CHUNK):
        chunk = flat[start : start + _MLP_CHUNK]
        h = layer_norm(chunk, w.ln2_gain, w.ln2_bias)
        h = gelu(h @ w.mlp_in + w.mlp_in_bias)
        np.add(chunk, h @ w.mlp_out + w.mlp_out_bias, out=out[start : start + _MLP_CHUNK])
    return out.reshape(b, n, d)


def _merge_batch(
    tokens: np.ndarray,
    sizes: np.ndarray,
    keys: np.ndarray,
    cfg: ToMeConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The encoder's merge call: merge_step without its edges.

    perfbench/tracing.py times and counts merges by this name, reading the
    (tokens, sizes, keys, cfg) arguments and the merged tokens.
    """
    tokens, sizes, _ = merge_step(tokens, sizes, keys, cfg)
    return tokens, sizes


def encoder_forward_batch(
    tokens: np.ndarray,
    sizes: np.ndarray,
    weights: ModelWeights,
    tome: ToMeConfig | None,
    collect_trace: bool = False,
) -> tuple[np.ndarray, list[int], list[MergeTraceEntry]]:
    """Run all blocks plus the final LayerNorm on a [B x n x d] batch.

    ``tome=None`` compiles the merge call sites out entirely; ``tome.r == 0``
    leaves them in as strict no-ops. Returns ([B x n_final x d] final
    LayerNormed tokens, CLS first; token counts entering each block plus the
    final count; optional merge trace).
    """
    cfg = weights.config
    tokens = np.ascontiguousarray(tokens, dtype=np.float32)
    sizes = np.ascontiguousarray(sizes, dtype=np.float32)
    counts = [tokens.shape[1]]
    trace: list[MergeTraceEntry] = []
    for bi, bw in enumerate(cfg_blocks(weights)):
        tokens, keys = attention_batch(tokens, sizes, bw, cfg.n_heads)
        if tome is not None:
            if collect_trace:
                before_mass = float(sizes.sum(dtype=np.float64))
                before_centroid = np.einsum(
                    "bn,bnd->d", sizes.astype(np.float64), tokens.astype(np.float64)
                )
            tokens, sizes = _merge_batch(tokens, sizes, keys, tome)
            if collect_trace:
                trace.append(
                    MergeTraceEntry(
                        block=bi,
                        size_sum_before=before_mass,
                        size_sum_after=float(sizes.sum(dtype=np.float64)),
                        centroid_before=before_centroid,
                        centroid_after=np.einsum(
                            "bn,bnd->d",
                            sizes.astype(np.float64),
                            tokens.astype(np.float64),
                        ),
                    )
                )
        tokens = mlp_batch(tokens, bw)
        counts.append(tokens.shape[1])
    final = layer_norm(tokens, weights.final_ln_gain, weights.final_ln_bias)
    return final, counts, trace


def cfg_blocks(weights: ModelWeights) -> list[BlockWeights]:
    if len(weights.blocks) != weights.config.depth:
        raise ConfigError(
            f"model declares depth {weights.config.depth} but carries "
            f"{len(weights.blocks)} blocks"
        )
    return weights.blocks


def encoder_forward(
    ts: TokenSequence,
    weights: ModelWeights,
    tome: ToMeConfig | None,
    collect_trace: bool = False,
) -> EncoderOutput:
    """Full encoder pass over one token sequence."""
    final, counts, trace = encoder_forward_batch(
        ts.tokens[None], ts.sizes[None], weights, tome, collect_trace
    )
    return EncoderOutput(
        cls_embedding=final[0, 0],
        final_token_count=counts[-1],
        per_block_counts=counts,
        merge_trace=trace,
    )


def tokens_from_spectrogram(values: np.ndarray, weights: ModelWeights) -> TokenSequence:
    """Normalized spectrogram -> encoder-ready token sequence.

    Pads shorter clips in time with zeros; clips longer than the model's
    declared duration are rejected.
    """
    values = fit_frames(np.asarray(values, dtype=np.float32), weights.expected_frames)
    patches, _ = extract_patches(values, weights.patch_config)
    embedded = embed_patches(patches, weights.embedding)
    return add_positional_and_cls(embedded, weights.embedding)


def forward_spectrograms(
    weights: ModelWeights,
    spectrograms: np.ndarray,
    tome: ToMeConfig | None,
    batch_size: int = 16,
) -> tuple[np.ndarray, list[int]]:
    """Normalize, patchify and encode a [n_samples x mels x frames] stack.

    Returns the [n_samples x d] CLS embeddings in input order and the
    per-block token counts (identical for every sample of a given clip
    length). This is the compute the throughput harness times.
    """
    specs = np.asarray(spectrograms, dtype=np.float32)
    if specs.ndim != 3:
        raise ShapeError(f"expected [n x mels x frames], got {specs.shape}")
    if weights.norm_mean != 0.0 or weights.norm_std != 1.0:
        specs = (specs - np.float32(weights.norm_mean)) / np.float32(weights.norm_std)
    cls_rows = []
    counts: list[int] = []
    for start in range(0, specs.shape[0], batch_size):
        chunk = specs[start : start + batch_size]
        seqs = [tokens_from_spectrogram(v, weights) for v in chunk]
        tokens = np.stack([s.tokens for s in seqs])
        sizes = np.stack([s.sizes for s in seqs])
        final, counts, _ = encoder_forward_batch(tokens, sizes, weights, tome)
        cls_rows.append(final[:, 0, :])
    if not cls_rows:
        return np.zeros((0, weights.config.embed_dim), dtype=np.float32), []
    return np.concatenate(cls_rows, axis=0), counts


def count_trajectory(
    n_tokens: int, depth: int, r: int, protect_cls: bool = True
) -> list[int]:
    """Predicted token counts entering each block plus the final count."""
    counts = [n_tokens]
    n = n_tokens
    for _ in range(depth):
        n -= min(r, merge_capacity(n, protect_cls))
        counts.append(n)
    return counts
