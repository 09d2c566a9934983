"""Overlapping 16x16 patch extraction and token embedding, batch-wide.

Each 128 x F spectrogram of a [B x 128 x F] stack is cut into 16x16 patches
on a stride-10 grid (overlap 6 on both axes), each patch is flattened
row-major to length 256 and mapped through a linear projection to dimension
d; positional embeddings and a leading [CLS] token complete the encoder
input. The whole stack is cut in one strided view and embedded in one matmul,
and every clip's tokens are bit-identical to embedding it alone. With 128
mel bins at 100 frames/s the grid has 12 frequency rows, so a t-second clip
gives N = 12 time-patch columns per the ceil((100t - 16) / 10) law
(valid-origin counting at the exact-fit boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import SpectrogramConfig, frames_for_duration

# AST's fixed patching: 16 x 16 patches on a stride-10 grid.
PATCH_SIZE = 16
PATCH_STRIDE = 10
PATCH_VALUES = PATCH_SIZE * PATCH_SIZE


@dataclass(frozen=True)
class EmbeddingWeights:
    projection: np.ndarray  # [256 x d]
    projection_bias: np.ndarray  # [d]
    positional: np.ndarray  # [(N+1) x d]
    cls_token: np.ndarray  # [d]


def _axis_patches(extent: int) -> int:
    # Valid-origin counting: origins 0, stride, 2*stride, ... that still fit.
    return (extent - PATCH_SIZE) // PATCH_STRIDE + 1


def _check_extent(n_mels: int, n_frames: int) -> None:
    if min(n_mels, n_frames) < PATCH_SIZE:
        raise ShapeError(
            f"spectrogram {n_mels} x {n_frames} is smaller than one "
            f"{PATCH_SIZE} x {PATCH_SIZE} patch"
        )


def patch_count(clip_seconds: float, spec: SpectrogramConfig | None = None) -> int:
    """Token count N for a t-second clip: the patch grid over ``spec``'s mel
    bins and ceil(fps * t) frames.

    At the default 128 mel bins and 100 frames/s this equals
    12 * ceil((100t - 16) / 10) for every whole-second t, and a clip of
    exactly 16 frames still yields one time column.
    """
    spec = spec or SpectrogramConfig()
    n_frames = frames_for_duration(clip_seconds, spec.frames_per_second)
    if n_frames < PATCH_SIZE:
        raise ConfigError(
            f"clip of {clip_seconds} s ({n_frames} frames) is shorter than one "
            f"{PATCH_SIZE}-frame patch"
        )
    _check_extent(spec.n_mels, n_frames)
    return _axis_patches(spec.n_mels) * _axis_patches(n_frames)


def extract_patches(values: np.ndarray) -> np.ndarray:
    """Cut a [B x mels x frames] stack into [B x N x 256] flattened patches.

    Patch (i, j) covers mel rows [stride*i, stride*i + 16) and frames
    [stride*j, stride*j + 16), flattened row-major. Enumeration order is
    frequency-fastest: patch index = j * n_freq_patches + i. A pure gather;
    no arithmetic touches the values.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 3:
        raise ShapeError(f"expected [B x mels x frames], got shape {values.shape}")
    _check_extent(values.shape[1], values.shape[2])
    p, st = PATCH_SIZE, PATCH_STRIDE
    windows = np.lib.stride_tricks.sliding_window_view(values, (p, p), axis=(1, 2))
    windows = windows[:, ::st, ::st]  # [B, nf, nt, p, p]: the patch grid
    b, nf, nt = windows.shape[:3]
    patches = windows.transpose(0, 2, 1, 3, 4).reshape(b, nf * nt, PATCH_VALUES)
    # time-major, frequency fastest; with one time column the reshape is a
    # non-contiguous view of ``values``, so copy it
    return np.ascontiguousarray(patches)


def embed_patches(patches: np.ndarray, w: EmbeddingWeights) -> np.ndarray:
    """Linear patch embedding, row (b, i) -> patches[b, i] @ projection + bias.
    One stacked matmul, which NumPy runs as a GEMM per clip: one [B*N x 256]
    GEMM gave the same bits but 9 MB more peak RSS on a 16-clip desk batch."""
    out = np.asarray(patches, dtype=np.float32) @ w.projection
    out += w.projection_bias
    return out


def add_positional_and_cls(
    x: np.ndarray, w: EmbeddingWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Prepend [CLS] to each clip's [N x d] slice of ``x`` and add positional rows.

    Returns (tokens [B x (N+1) x d] with [CLS] at index 0, merge sizes
    [B x (N+1)], all 1).
    """
    x = np.asarray(x, dtype=np.float32)
    b, n, d = x.shape
    tokens = np.empty((b, n + 1, d), dtype=np.float32)
    tokens[:, 0] = w.cls_token + w.positional[0]
    np.add(x, w.positional[1:], out=tokens[:, 1:])
    return tokens, np.ones((b, n + 1), dtype=np.float32)
