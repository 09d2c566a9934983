"""Pre-norm transformer encoder with token merging between attention and MLP.

Each block runs multi-head self-attention on LayerNormed tokens, merges the
``r`` most similar token pairs using that block's attention keys, then runs
the GELU MLP on what survives. Attention toward key j is weighted by its
size s_j (proportional attention, the ln(s_j) logit offset of ToMe) so a
merged token attends and is attended to exactly as strongly as its
constituents would be; with all sizes at 1 the block is a plain pre-norm ViT
block.

One compute path runs from a [B x mels x frames] spectrogram stack to the
[B x d] [CLS] rows, float32 throughout: the stack is patchified and embedded
batch-wide, the blocks run on [B x n x d] token arrays, and the final
LayerNorm is applied to the [CLS] rows alone, the only rows the head reads.
Attention, merge and MLP each split the batch by clips over one sample pool,
so a clip runs the same operations alone or in any batch; every clip shares
n and r, so counts stay aligned and the batch never ragged.
Every block takes the same path at every r: r = 0 makes each merge a strict
no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import SpectrogramConfig, fit_frames, frames_for_duration
from .head import TASK_KINDS, HeadWeights
from .patchify import (
    PATCH_VALUES,
    EmbeddingWeights,
    add_positional_and_cls,
    embed_patches,
    extract_patches,
    patch_count,
)
from .pool import SamplePool, sample_pool
from .tome import ToMeConfig, merge_capacity, merge_step

LN_EPS = 1e-5
# The finite float32 range, as Python floats: the largest value and the
# smallest normal one.
F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).tiny)


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
        for name in ("mlp_ratio", "clip_seconds"):  # both are rounded to counts
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("depth", "embed_dim", "n_heads", "hidden_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(
                f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}"
            )

    @property
    def hidden_dim(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))


@dataclass(frozen=True)
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


def tensor_layout(
    config: ModelConfig, spec_config: SpectrogramConfig
) -> dict[str, tuple[int, ...]]:
    """Every model tensor's name and shape, in MODL1 file order.

    A name is ``<owner>.<field>``: owner ``patch`` is the EmbeddingWeights,
    ``block<i>`` the i-th BlockWeights and ``head`` the HeadWeights; a name
    without an owner is a ModelWeights field.
    """
    d, hidden, c = config.embed_dim, config.hidden_dim, config.n_classes
    n_tokens = 1 + patch_count(config.clip_seconds, spec_config)  # + [CLS]
    block = {
        "ln1_gain": (d,), "ln1_bias": (d,), "qkv": (d, 3 * d), "qkv_bias": (3 * d,),
        "proj": (d, d), "proj_bias": (d,), "ln2_gain": (d,), "ln2_bias": (d,),
        "mlp_in": (d, hidden), "mlp_in_bias": (hidden,),
        "mlp_out": (hidden, d), "mlp_out_bias": (d,),
    }
    return {
        "patch.projection": (PATCH_VALUES, d),
        "patch.projection_bias": (d,),
        "patch.positional": (n_tokens, d),
        "patch.cls_token": (d,),
        **{
            f"block{i}.{field}": shape
            for i in range(config.depth)
            for field, shape in block.items()
        },
        "final_ln_gain": (d,),
        "final_ln_bias": (d,),
        "head.linear": (d, c),
        "head.bias": (c,),
    }


@dataclass
class ModelWeights:
    """Everything needed to run one model end to end. Every tensor is
    checked against ``tensor_layout`` when the model is built, so no compute
    step re-checks a weight's shape; the weight records are frozen."""

    config: ModelConfig
    spec_config: SpectrogramConfig
    embedding: EmbeddingWeights
    blocks: tuple[BlockWeights, ...]
    final_ln_gain: np.ndarray
    final_ln_bias: np.ndarray
    head: HeadWeights
    norm_mean: float = 0.0
    norm_std: float = 1.0

    def __post_init__(self) -> None:
        # forward_spectrograms divides by them as float32 values; compared
        # as Python floats, since casting an overflowing value warns
        if not (abs(self.norm_mean) <= F32_MAX and F32_TINY <= self.norm_std <= F32_MAX):
            raise ConfigError(
                f"norm_mean must be within +-{F32_MAX:g} and norm_std in "
                f"[{F32_TINY:g}, {F32_MAX:g}] (float32), got {self.norm_mean} and "
                f"{self.norm_std}"
            )
        if len(self.blocks) != self.config.depth:
            raise ConfigError(
                f"model declares depth {self.config.depth} but carries "
                f"{len(self.blocks)} blocks"
            )
        layout = tensor_layout(self.config, self.spec_config)
        for name, t in self.tensors():
            if t.shape != layout[name]:
                raise ShapeError(
                    f"tensor {name!r} has shape {list(t.shape)}, the model's "
                    f"config gives {list(layout[name])}"
                )

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], **fields) -> ModelWeights:
        """The model holding a tensor for every ``tensor_layout`` name, plus
        its other ``fields``."""
        owned: dict[str, dict[str, np.ndarray]] = {}
        for name, t in tensors.items():
            owner, _, field = name.rpartition(".")
            owned.setdefault(owner, {})[field] = t
        return cls(
            embedding=EmbeddingWeights(**owned["patch"]),
            blocks=tuple(
                BlockWeights(**owned[f"block{i}"]) for i in range(fields["config"].depth)
            ),
            head=HeadWeights(**owned["head"]),
            **owned[""],
            **fields,
        )

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """(name, tensor) for every ``tensor_layout`` name, in file order."""
        owners = {
            "patch": self.embedding,
            **{f"block{i}": b for i, b in enumerate(self.blocks)},
            "": self,
            "head": self.head,
        }
        table = []
        for name in tensor_layout(self.config, self.spec_config):
            owner, _, field = name.rpartition(".")
            table.append((name, getattr(owners[owner], field)))
        return table

    @property
    def expected_frames(self) -> int:
        return frames_for_duration(
            self.config.clip_seconds, self.spec_config.frames_per_second
        )

    @property
    def n_tokens(self) -> int:
        """Patches plus [CLS]: the positional table's rows."""
        return self.embedding.positional.shape[0]


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """LayerNorm over the last axis, written into ``out`` when it is given."""
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    centered = np.subtract(x, mean, out=out)
    # variance as one row dot product: no centered*centered temporary
    var = np.einsum("...i,...i->...", centered, centered)[..., None]
    var *= np.float32(1.0 / x.shape[-1])
    var += np.float32(LN_EPS)
    var += var - var  # an overflowed (inf) variance becomes NaN; finite ones keep their bits
    np.sqrt(var, out=var)
    centered *= np.reciprocal(var, out=var)  # one division per row
    centered *= gain
    centered += bias
    return centered


_GELU_C0 = np.float32(math.sqrt(2.0 / math.pi))
_GELU_C1 = np.float32(0.044715 * math.sqrt(2.0 / math.pi))


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh-form GELU, written into ``out`` when it is given; erf ufuncs are
    an order of magnitude slower on this path."""
    u = np.multiply(x, x, out=out)
    u *= _GELU_C1
    u += _GELU_C0
    u *= x  # u = x (c0 + c1 x^2)
    np.tanh(u, out=u)
    u += np.float32(1.0)
    u *= x
    u *= np.float32(0.5)
    return u


def attention_batch(
    x: np.ndarray, sizes: np.ndarray, w: BlockWeights, n_heads: int, pool: SamplePool
) -> tuple[np.ndarray, np.ndarray]:
    """Residual attention sub-layer on a [B x n x d] batch; also returns the
    head-averaged keys [B x n x head_dim] the merge step scores on. Each
    worker of ``pool`` runs its samples one at a time through its own
    [n x d], [n x 3d] and [n x n] buffers, so one sample's working set stays
    cache-hot and no batch-sized temporary is made.

    Proportional attention, softmax(q k^T / sqrt(dh) + ln s), weights key
    j's value row and the normaliser by its size s_j: the normaliser is one
    GEMV attn @ s and the values are scaled before the AV GEMM, so nothing
    but the max shift and exp passes over the [n x n] scores."""
    b, n, d = x.shape
    dh = d // n_heads
    sizes = np.ascontiguousarray(sizes, dtype=np.float32)
    out = np.empty((b, n, d), dtype=np.float32)
    keys = np.zeros((b, n, dh), dtype=np.float32)

    def run(worker: int, lo: int, hi: int) -> None:
        h = pool.scratch(worker, "h", (n, d))
        qkv = pool.scratch(worker, "qkv", (n, 3 * d))
        attn = pool.scratch(worker, "attn", (n, n))
        ctx = pool.scratch(worker, "ctx", (n, d))
        sv = pool.scratch(worker, "sv", (n, dh))
        den = pool.scratch(worker, "den", (n,))
        for i in range(lo, hi):
            s = sizes[i]
            layer_norm(x[i], w.ln1_gain, w.ln1_bias, out=h)
            np.matmul(h, w.qkv, out=qkv)
            qkv += w.qkv_bias
            qkv[:, :d] *= np.float32(1.0 / math.sqrt(dh))  # fold the q scale in
            # Heads stay as strided views into qkv; BLAS handles the strides.
            for j in range(n_heads):
                cols = slice(j * dh, (j + 1) * dh)
                q, k, v = qkv[:, cols], qkv[:, d:][:, cols], qkv[:, 2 * d :][:, cols]
                np.matmul(q, k.T, out=attn)
                attn -= attn.max(axis=-1, keepdims=True)
                np.exp(attn, out=attn)
                # the normalization is folded into ctx: divide the [n x dh]
                # output instead of the [n x n] weights
                np.matmul(attn, s, out=den)
                np.multiply(v, s[:, None], out=sv)
                np.matmul(attn, sv, out=ctx[:, cols])
                ctx[:, cols] /= den[:, None]
                keys[i] += k  # from zero, in head order: the bits of a mean
            keys[i] /= np.float32(n_heads)
            np.matmul(ctx, w.proj, out=out[i])
            out[i] += w.proj_bias
            out[i] += x[i]

    pool.split(run, b)
    return out, keys


_MLP_ROWS = 256  # rows per slab; one slab's LN and hidden buffers stay in L2


def mlp_batch(x: np.ndarray, w: BlockWeights, pool: SamplePool) -> np.ndarray:
    """Residual MLP sub-layer x + W2 gelu(W1 ln2(x)); each worker of ``pool``
    runs its samples in row slabs from the sample's row 0, in its own
    LayerNorm and hidden buffers, so no slab spans two samples."""
    b, n, d = x.shape
    out = np.empty_like(x)
    rows = min(_MLP_ROWS, n)

    def run(worker: int, lo: int, hi: int) -> None:
        h = pool.scratch(worker, "ln2", (rows, d))
        hidden = pool.scratch(worker, "hidden", (rows, w.mlp_in.shape[1]))
        act = pool.scratch(worker, "gelu", hidden.shape)
        for i in range(lo, hi):
            for start in range(0, n, rows):
                chunk, dst = x[i, start : start + rows], out[i, start : start + rows]
                m = chunk.shape[0]
                layer_norm(chunk, w.ln2_gain, w.ln2_bias, out=h[:m])
                np.matmul(h[:m], w.mlp_in, out=hidden[:m])
                hidden[:m] += w.mlp_in_bias
                np.matmul(gelu(hidden[:m], out=act[:m]), w.mlp_out, out=dst)
                dst += w.mlp_out_bias
                dst += chunk

    pool.split(run, b)
    return out


def _merge_batch(
    tokens: np.ndarray, sizes: np.ndarray, keys: np.ndarray, cfg: ToMeConfig,
    pool: SamplePool,
) -> tuple[np.ndarray, np.ndarray]:
    """The encoder's merge call: merge_step without its edges.

    perfbench/tracing.py times and counts merges by this name, reading the
    (tokens, sizes, keys, cfg) arguments and the merged tokens; the tests
    wrap it to check what each block's merge conserves.
    """
    tokens, sizes, _ = merge_step(tokens, sizes, keys, cfg, pool)
    return tokens, sizes


def encoder_forward_batch(
    tokens: np.ndarray, sizes: np.ndarray, weights: ModelWeights, tome: ToMeConfig,
    threads: int = 1,
) -> tuple[np.ndarray, list[int]]:
    """Run all blocks on a [B x n x d] batch; ``tome.r == 0`` makes every
    merge a strict no-op.

    The blocks run on a ``sample_pool`` of ``threads`` workers or the BLAS
    pool size, whichever is larger; the bits do not depend on either.
    Returns the [B x n_final x d] tokens out of the last block, CLS first,
    before the final LayerNorm, and the token counts entering each block
    plus the final count.
    """
    cfg = weights.config
    tokens = np.ascontiguousarray(tokens, dtype=np.float32)
    sizes = np.ascontiguousarray(sizes, dtype=np.float32)
    counts = [tokens.shape[1]]
    with sample_pool(threads) as pool:
        for bw in weights.blocks:
            tokens, keys = attention_batch(tokens, sizes, bw, cfg.n_heads, pool)
            tokens, sizes = _merge_batch(tokens, sizes, keys, tome, pool)
            tokens = mlp_batch(tokens, bw, pool)
            counts.append(tokens.shape[1])
    return tokens, counts


def tokens_from_spectrogram(
    values: np.ndarray, weights: ModelWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Padded, normalized [B x mels x frames] stack -> encoder-ready (tokens
    [B x n x d], sizes [B x n]). Each clip must be the model's
    [n_mels x expected_frames]; ``forward_spectrograms`` pads before it
    normalizes."""
    values = np.asarray(values, dtype=np.float32)
    clip = (weights.spec_config.n_mels, weights.expected_frames)
    if values.ndim != 3 or values.shape[1:] != clip:
        raise ShapeError(
            f"expected a [B x {clip[0]} x {clip[1]}] stack, got shape {values.shape}"
        )
    patches = extract_patches(values)
    embedded = embed_patches(patches, weights.embedding)
    return add_positional_and_cls(embedded, weights.embedding)


def forward_spectrograms(
    weights: ModelWeights,
    spectrograms: np.ndarray,
    tome: ToMeConfig,
    batch_size: int = 16,
    threads: int = 1,
) -> tuple[np.ndarray, list[int]]:
    """Pad, normalize, patchify and encode a [n_samples x mels x frames]
    stack one ``batch_size`` chunk at a time.

    A short clip is zero-padded before it is normalized, as AST does and as
    ``bench.load_inputs`` pads it, so its logits do not depend on which of
    the two padded it.

    Returns the [n_samples x d] final-LayerNormed CLS embeddings in input
    order and the per-block token counts (identical for every sample of a
    given clip length). This is the compute the throughput harness times.
    """
    specs = np.asarray(spectrograms, dtype=np.float32)
    if specs.ndim != 3:
        raise ShapeError(f"expected [n x mels x frames], got {specs.shape}")
    if specs.shape[1] != weights.spec_config.n_mels:
        raise ShapeError(
            f"clip has {specs.shape[1]} mel bins, the model expects "
            f"{weights.spec_config.n_mels}"
        )
    cls_rows = []
    counts: list[int] = []
    for start in range(0, specs.shape[0], batch_size):
        chunk = fit_frames(specs[start : start + batch_size], weights.expected_frames)
        if weights.norm_mean != 0.0 or weights.norm_std != 1.0:
            chunk = (chunk - np.float32(weights.norm_mean)) / np.float32(weights.norm_std)
        # Popped straight into the call, so no name here holds the block-0
        # tokens once block 0's attention has replaced them (CPython >= 3.11
        # moves call arguments into the callee's frame).
        batch = list(tokens_from_spectrogram(chunk, weights))
        final, counts = encoder_forward_batch(
            batch.pop(0), batch.pop(), weights, tome, threads=threads
        )
        cls_rows.append(layer_norm(final[:, 0], weights.final_ln_gain, weights.final_ln_bias))
    if not cls_rows:
        return np.zeros((0, weights.config.embed_dim), dtype=np.float32), []
    return np.concatenate(cls_rows, axis=0), counts


def count_trajectory(n_tokens: int, depth: int, r: int) -> list[int]:
    """Predicted token counts entering each block plus the final count:
    each block removes min(r, merge_capacity(n)), [CLS] never among them."""
    counts = [n_tokens]
    n = n_tokens
    for _ in range(depth):
        n -= min(r, merge_capacity(n))
        counts.append(n)
    return counts
