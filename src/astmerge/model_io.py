"""Model/manifest serialization and deterministic synthetic generation.

``MODL1`` is a single little-endian file: 5-byte magic, a version byte, a
length-prefixed JSON header (config plus an ordered tensor table), then the
raw float32 tensor payloads in table order. ``MANI1`` manifests are JSON
lines: a header object followed by one {path, label} object per sample;
line order defines teacher-logits alignment.

Synthetic weights and datasets are pure functions of (seed, config) drawn
from the Philox counter-based generator, so desk-scale experiments are
reproducible bit for bit. The dataset generator emits class-conditional
band-energy spectrograms separable enough that a ridge-fitted linear probe
on the frozen encoder's [CLS] embedding beats chance by a wide margin.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, ConfigError, FormatError, ShapeError
from .features import SpectrogramConfig
from .head import TASK_KINDS, HeadWeights
from .patchify import EmbeddingWeights, PatchConfig, patch_count
from .transformer import BlockWeights, ModelConfig, ModelWeights, forward_spectrograms

MODL1_MAGIC = b"MODL1"
MODL1_VERSION = 1
MANI1_MAGIC = "MANI1"

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------------
# MODL1 model files
# --------------------------------------------------------------------------

def _tensor_table(w: ModelWeights) -> list[tuple[str, np.ndarray]]:
    table = [
        ("patch.projection", w.embedding.projection),
        ("patch.projection_bias", w.embedding.projection_bias),
        ("patch.positional", w.embedding.positional),
        ("patch.cls_token", w.embedding.cls_token),
    ]
    for i, b in enumerate(w.blocks):
        table += [
            (f"block{i}.ln1_gain", b.ln1_gain),
            (f"block{i}.ln1_bias", b.ln1_bias),
            (f"block{i}.qkv", b.qkv),
            (f"block{i}.qkv_bias", b.qkv_bias),
            (f"block{i}.proj", b.proj),
            (f"block{i}.proj_bias", b.proj_bias),
            (f"block{i}.ln2_gain", b.ln2_gain),
            (f"block{i}.ln2_bias", b.ln2_bias),
            (f"block{i}.mlp_in", b.mlp_in),
            (f"block{i}.mlp_in_bias", b.mlp_in_bias),
            (f"block{i}.mlp_out", b.mlp_out),
            (f"block{i}.mlp_out_bias", b.mlp_out_bias),
        ]
    table += [
        ("final_ln_gain", w.final_ln_gain),
        ("final_ln_bias", w.final_ln_bias),
        ("head.linear", w.head.linear),
        ("head.bias", w.head.bias),
    ]
    return table


def save_model(path: str | Path, w: ModelWeights) -> None:
    table = _tensor_table(w)
    header = {
        "model": {
            "depth": w.config.depth,
            "embed_dim": w.config.embed_dim,
            "n_heads": w.config.n_heads,
            "mlp_ratio": w.config.mlp_ratio,
            "clip_seconds": w.config.clip_seconds,
            "n_classes": w.config.n_classes,
            "task_kind": w.config.task_kind,
        },
        "spectrogram": {
            "n_mels": w.spec_config.n_mels,
            "frames_per_second": w.spec_config.frames_per_second,
            "window_length_ms": w.spec_config.window_length_ms,
            "hop_length_ms": w.spec_config.hop_length_ms,
            "fft_size": w.spec_config.fft_size,
            "mel_fmin": w.spec_config.mel_fmin,
            "mel_fmax": w.spec_config.mel_fmax,
            "log_floor": w.spec_config.log_floor,
        },
        "patch": {
            "patch_size": w.patch_config.patch_size,
            "stride": w.patch_config.stride,
            "embed_dim": w.patch_config.embed_dim,
        },
        "norm_mean": w.norm_mean,
        "norm_std": w.norm_std,
        "tensors": [
            {"name": name, "shape": list(t.shape)} for name, t in table
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MODL1_MAGIC)
        f.write(struct.pack("<BI", MODL1_VERSION, len(blob)))
        f.write(blob)
        for _, t in table:
            f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_model(path: str | Path) -> ModelWeights:
    data = Path(path).read_bytes()
    if len(data) < 5 or data[:5] != MODL1_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:5]!r}, expected {MODL1_MAGIC!r}")
    if len(data) < 10:
        raise FormatError(f"{path}: truncated MODL1 header")
    version, header_len = struct.unpack_from("<BI", data, 5)
    if version != MODL1_VERSION:
        raise FormatError(f"{path}: unknown MODL1 version {version}")
    if len(data) < 10 + header_len:
        raise FormatError(f"{path}: truncated MODL1 header payload")
    try:
        header = json.loads(data[10 : 10 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: undecodable MODL1 header: {e}") from e

    m, s, p = header["model"], header["spectrogram"], header["patch"]
    config = ModelConfig(
        depth=m["depth"],
        embed_dim=m["embed_dim"],
        n_heads=m["n_heads"],
        mlp_ratio=m["mlp_ratio"],
        clip_seconds=m["clip_seconds"],
        n_classes=m["n_classes"],
        task_kind=m["task_kind"],
    )
    spec_config = SpectrogramConfig(
        n_mels=s["n_mels"],
        frames_per_second=s["frames_per_second"],
        window_length_ms=s["window_length_ms"],
        hop_length_ms=s["hop_length_ms"],
        fft_size=s["fft_size"],
        mel_fmin=s["mel_fmin"],
        mel_fmax=s["mel_fmax"],
        log_floor=s["log_floor"],
    )
    patch_config = PatchConfig(
        patch_size=p["patch_size"], stride=p["stride"], embed_dim=p["embed_dim"]
    )

    payload = data[10 + header_len :]
    declared = header["tensors"]
    total = sum(int(np.prod(t["shape"])) for t in declared)
    if len(payload) != 4 * total:
        raise FormatError(
            f"{path}: tensor payload is {len(payload)} bytes, header declares "
            f"{4 * total}"
        )
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for t in declared:
        count = int(np.prod(t["shape"]))
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        tensors[t["name"]] = arr.reshape(t["shape"]).copy()
        offset += 4 * count

    def take(name: str) -> np.ndarray:
        if name not in tensors:
            raise FormatError(f"{path}: tensor {name!r} missing from MODL1 file")
        return tensors.pop(name)

    embedding = EmbeddingWeights(
        projection=take("patch.projection"),
        projection_bias=take("patch.projection_bias"),
        positional=take("patch.positional"),
        cls_token=take("patch.cls_token"),
    )
    blocks = [
        BlockWeights(
            ln1_gain=take(f"block{i}.ln1_gain"),
            ln1_bias=take(f"block{i}.ln1_bias"),
            qkv=take(f"block{i}.qkv"),
            qkv_bias=take(f"block{i}.qkv_bias"),
            proj=take(f"block{i}.proj"),
            proj_bias=take(f"block{i}.proj_bias"),
            ln2_gain=take(f"block{i}.ln2_gain"),
            ln2_bias=take(f"block{i}.ln2_bias"),
            mlp_in=take(f"block{i}.mlp_in"),
            mlp_in_bias=take(f"block{i}.mlp_in_bias"),
            mlp_out=take(f"block{i}.mlp_out"),
            mlp_out_bias=take(f"block{i}.mlp_out_bias"),
        )
        for i in range(config.depth)
    ]
    weights = ModelWeights(
        config=config,
        spec_config=spec_config,
        patch_config=patch_config,
        embedding=embedding,
        blocks=blocks,
        final_ln_gain=take("final_ln_gain"),
        final_ln_bias=take("final_ln_bias"),
        head=HeadWeights(linear=take("head.linear"), bias=take("head.bias")),
        norm_mean=header["norm_mean"],
        norm_std=header["norm_std"],
    )
    if tensors:
        raise FormatError(
            f"{path}: unexpected extra tensors {sorted(tensors)} in MODL1 file"
        )
    expected_rows = weights.n_tokens
    if embedding.positional.shape[0] != expected_rows:
        raise ShapeError(
            f"{path}: positional table has {embedding.positional.shape[0]} rows, "
            f"clip length implies {expected_rows}"
        )
    return weights


# --------------------------------------------------------------------------
# MANI1 manifests
# --------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    """Ordered (path, label) entries; order defines teacher-logits alignment."""

    entries: list[tuple[str, object]]
    task_kind: str
    clip_seconds: float
    base_dir: Path | None = None

    def labels_array(self, n_classes: int | None = None) -> np.ndarray:
        if self.task_kind == "single-label":
            labels = [label for _, label in self.entries]
            for label in labels:
                if isinstance(label, bool) or not isinstance(label, (int, np.integer)) or (
                    n_classes is not None and not 0 <= label < n_classes
                ):
                    raise AlignmentError(
                        f"single-label label {label!r} is not a class index in "
                        f"[0, {n_classes})"
                    )
            return np.array(labels, dtype=np.int64)
        rows = [np.asarray(label, dtype=np.float64) for _, label in self.entries]
        mat = np.stack(rows)
        if n_classes is not None and mat.shape[1] != n_classes:
            raise ShapeError(
                f"manifest labels have {mat.shape[1]} classes, expected {n_classes}"
            )
        return mat


def save_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    lines = [
        json.dumps(
            {
                "magic": MANI1_MAGIC,
                "task_kind": manifest.task_kind,
                "clip_seconds": manifest.clip_seconds,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for entry_path, label in manifest.entries:
        if isinstance(label, np.ndarray):
            label_value = label.tolist()
        elif isinstance(label, np.generic):
            label_value = label.item()
        else:
            label_value = label
        lines.append(
            json.dumps(
                {"path": entry_path, "label": label_value},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> DatasetManifest:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: manifest header is not JSON: {e}") from e
    if header.get("magic") != MANI1_MAGIC:
        raise FormatError(
            f"{path}: bad magic {header.get('magic')!r}, expected {MANI1_MAGIC!r}"
        )
    task_kind, clip_seconds = header.get("task_kind"), header.get("clip_seconds")
    if task_kind not in TASK_KINDS:
        raise FormatError(
            f"{path}: manifest task_kind must be one of {TASK_KINDS}, got {task_kind!r}"
        )
    if isinstance(clip_seconds, bool) or not isinstance(clip_seconds, (int, float)):
        raise FormatError(
            f"{path}: manifest clip_seconds must be a number, got {clip_seconds!r}"
        )
    entries = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            row = json.loads(ln)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{i}: manifest entry is not JSON: {e}") from e
        if "path" not in row or "label" not in row:
            raise FormatError(f"{path}:{i}: manifest entry needs 'path' and 'label'")
        entries.append((row["path"], row["label"]))
    return DatasetManifest(
        entries=entries,
        task_kind=task_kind,
        clip_seconds=clip_seconds,
        base_dir=Path(path).resolve().parent,
    )


# --------------------------------------------------------------------------
# Synthetic model generation
# --------------------------------------------------------------------------

def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    # Philox is counter-based: the (seed, stream) pair fully determines the
    # draw sequence independent of platform.
    key = ((seed & _MASK64) << 64) | (stream & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_synthetic_model(
    seed: int,
    config: ModelConfig,
    spec_config: SpectrogramConfig | None = None,
    norm_mean: float = 0.0,
    norm_std: float = 1.0,
) -> ModelWeights:
    """Seeded random weights at realistic scales.

    Projection-style tensors are standard normal scaled by 1/sqrt(d), drawn
    in the MODL1 tensor-table order from Philox(key=seed); LayerNorm gains
    are 1 and all biases 0.
    """
    spec_config = spec_config or SpectrogramConfig()
    patch_config = PatchConfig(embed_dim=config.embed_dim)
    d = config.embed_dim
    hidden = config.hidden_dim
    n_tokens = patch_count(config.clip_seconds, patch_config) + 1
    rng = _rng(seed)
    scale = 1.0 / np.sqrt(d)

    def draw(*shape: int) -> np.ndarray:
        return (rng.standard_normal(shape, dtype=np.float32) * np.float32(scale))

    def ones(n: int) -> np.ndarray:
        return np.ones(n, dtype=np.float32)

    def zeros(n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float32)

    embedding = EmbeddingWeights(
        projection=draw(patch_config.patch_values, d),
        projection_bias=zeros(d),
        positional=draw(n_tokens, d),
        cls_token=draw(d),
    )
    blocks = [
        BlockWeights(
            ln1_gain=ones(d),
            ln1_bias=zeros(d),
            qkv=draw(d, 3 * d),
            qkv_bias=zeros(3 * d),
            proj=draw(d, d),
            proj_bias=zeros(d),
            ln2_gain=ones(d),
            ln2_bias=zeros(d),
            mlp_in=draw(d, hidden),
            mlp_in_bias=zeros(hidden),
            mlp_out=draw(hidden, d),
            mlp_out_bias=zeros(d),
        )
        for _ in range(config.depth)
    ]
    return ModelWeights(
        config=config,
        spec_config=spec_config,
        patch_config=patch_config,
        embedding=embedding,
        blocks=blocks,
        final_ln_gain=ones(d),
        final_ln_bias=zeros(d),
        head=HeadWeights(linear=draw(d, config.n_classes), bias=zeros(config.n_classes)),
        norm_mean=norm_mean,
        norm_std=norm_std,
    )


# --------------------------------------------------------------------------
# Synthetic datasets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticDataConfig:
    n_classes: int = 4
    clip_seconds: float = 5.0
    n_mels: int = 128
    frames_per_second: int = 100
    noise_std: float = 0.5
    task_kind: str = "single-label"

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")

    @property
    def n_frames(self) -> int:
        from .features import frames_for_duration

        return frames_for_duration(self.clip_seconds, self.frames_per_second)


def class_templates(cfg: SyntheticDataConfig) -> np.ndarray:
    """Deterministic band-energy template per class, [C x n_mels x frames].

    Class c lights up its own block of mel rows with a class-specific
    temporal ripple on a quiet floor, so classes are linearly separable and
    nearest-template correlation on noiseless samples is exact.
    """
    c, rows, cols = cfg.n_classes, cfg.n_mels, cfg.n_frames
    band = max(1, rows // c)
    t = np.arange(cols, dtype=np.float64)
    templates = np.full((c, rows, cols), -1.0, dtype=np.float64)
    for ci in range(c):
        lo = (ci * band) % rows
        hi = min(lo + band, rows)
        ripple = 1.0 + 0.3 * np.sin(2.0 * np.pi * (ci + 1) * t / cols)
        templates[ci, lo:hi, :] = 2.0 * ripple
    return templates.astype(np.float32)


def generate_synthetic_dataset(
    seed: int, n_samples: int, cfg: SyntheticDataConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced spectrograms: template[label] plus per-sample noise.

    Sample i's noise comes from Philox(key=(seed, i+1)), so any sample is
    reproducible from its index alone. Labels are class indices
    (single-label) or one-hot rows (multi-label).
    """
    templates = class_templates(cfg)
    specs = np.empty((n_samples, cfg.n_mels, cfg.n_frames), dtype=np.float32)
    class_ids = np.arange(n_samples, dtype=np.int64) % cfg.n_classes
    for i in range(n_samples):
        noise = _rng(seed, stream=i + 1).standard_normal(
            (cfg.n_mels, cfg.n_frames), dtype=np.float32
        )
        specs[i] = templates[class_ids[i]] + np.float32(cfg.noise_std) * noise
    if cfg.task_kind == "multi-label":
        labels = np.zeros((n_samples, cfg.n_classes), dtype=np.float64)
        labels[np.arange(n_samples), class_ids] = 1.0
        return specs, labels
    return specs, class_ids


def generate_synthetic_teacher_logits(
    labels: np.ndarray, n_classes: int, seed: int, scale: float = 4.0,
    noise_std: float = 0.5,
) -> np.ndarray:
    """Plausible frozen-teacher logits: scaled targets plus seeded noise."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if labels.ndim == 1:
        targets = np.zeros((n, n_classes), dtype=np.float64)
        targets[np.arange(n), labels.astype(np.int64)] = 1.0
    else:
        targets = labels.astype(np.float64)
    rng = _rng(seed, stream=97)
    noise = rng.standard_normal((n, n_classes))
    return (scale * targets + noise_std * noise).astype(np.float32)


# --------------------------------------------------------------------------
# Template-probe head fitting
# --------------------------------------------------------------------------

def fit_head_probe(
    weights: ModelWeights,
    spectrograms: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 16,
    ridge: float = 1e-3,
) -> HeadWeights:
    """Closed-form linear probe on the frozen encoder's [CLS] embeddings.

    Runs the merge-free encoder over the fitting set, then solves a ridge
    regression from embeddings to one-hot (or binary) targets. No
    backpropagation anywhere; this is how desk-scale models get an
    above-chance head.
    """
    cls, _ = forward_spectrograms(weights, spectrograms, tome=None, batch_size=batch_size)
    x = np.concatenate(
        [cls.astype(np.float64), np.ones((cls.shape[0], 1))], axis=1
    )
    labels = np.asarray(labels)
    if labels.ndim == 1:
        y = np.zeros((labels.size, weights.config.n_classes))
        y[np.arange(labels.size), labels.astype(np.int64)] = 1.0
    else:
        y = labels.astype(np.float64)
    gram = x.T @ x
    alpha = ridge * np.trace(gram) / gram.shape[0]
    coef = np.linalg.solve(gram + alpha * np.eye(gram.shape[0]), x.T @ y)
    return HeadWeights(
        linear=coef[:-1].astype(np.float32), bias=coef[-1].astype(np.float32)
    )
