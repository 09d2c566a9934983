"""Model/manifest serialization and deterministic synthetic generation.

``MODL1`` is a single little-endian file: 5-byte magic, a version byte, a
length-prefixed JSON header (the model and spectrogram configs and the input
normalisation), then the raw float32 tensors in ``transformer.tensor_layout``
order, at the layout's shapes; the file states no tensor names or shapes of
its own. ``MANI1`` manifests are JSON lines: a header object followed by one
{path, label} object per sample; line order defines teacher-logits alignment.

Synthetic weights and datasets are pure functions of (seed, config) drawn
from the Philox counter-based generator, so desk-scale experiments are
reproducible bit for bit. The dataset generator emits class-conditional
band-energy spectrograms separable enough that a ridge-fitted linear probe
on the frozen encoder's [CLS] embedding beats chance by a wide margin.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import AlignmentError, ConfigError, FormatError, ShapeError
from .features import SpectrogramConfig, frames_for_duration, read_float32
from .head import TASK_KINDS, HeadWeights, one_hot, targets
from .tome import ToMeConfig
from .transformer import (
    ModelConfig,
    ModelWeights,
    forward_spectrograms,
    tensor_layout,
)

MODL1_MAGIC = b"MODL1"
# Version 1 headers could set the window, FFT, mel edges, log floor and
# patching, and versions 1 and 2 carried a tensor table that could only
# repeat the layout; both are refused, not read with those parts ignored.
MODL1_VERSION = 3
MANI1_MAGIC = "MANI1"

_MASK64 = (1 << 64) - 1
# Synthetic teacher logits: TEACHER_SCALE * target + TEACHER_NOISE_STD * noise.
TEACHER_SCALE = 4.0
TEACHER_NOISE_STD = 0.5
# fit_head_probe's ridge, relative to the mean diagonal of the Gram matrix.
PROBE_RIDGE = 1e-3


# --------------------------------------------------------------------------
# MODL1 model files
# --------------------------------------------------------------------------

# The JSON types a field of each annotated type accepts, matched exactly:
# json.loads yields only these, so a bool is never a number.
_NUM = (int, float)
_JSON_TYPES = {int: (int,), float: _NUM, str: (str,)}
_ANY_JSON = (dict, list, str, int, float, bool, type(None))
# Each MODL1 config section: its ModelWeights attribute and config class.
_SECTIONS = {
    "model": ("config", ModelConfig),
    "spectrogram": ("spec_config", SpectrogramConfig),
}


def _json_fields(cls: type) -> dict[str, tuple[type, ...]]:
    """Each dataclass field of ``cls`` with the JSON types it accepts: a
    ``float`` takes any number."""
    return {name: _JSON_TYPES[hint] for name, hint in get_type_hints(cls).items()}


# Every MODL1 header field load_model reads; other keys are ignored.
_MODL1_HEADER = {
    **{name: _json_fields(cls) for name, (_, cls) in _SECTIONS.items()},
    "norm_mean": _NUM,
    "norm_std": _NUM,
}
_MANI1_HEADER = {"magic": (str,), "task_kind": (str,), "clip_seconds": _NUM}
_MANI1_ENTRY = {"path": (str,), "label": _ANY_JSON}


def _check_fields(
    path: str | Path, obj: object, schema: dict, what: str, prefix: str = ""
) -> None:
    """Raise FormatError naming the first ``schema`` field that ``obj`` (the
    file's ``what``, say "manifest line 3") lacks or holds with the wrong
    JSON type; a nested schema checks a nested object."""
    if type(obj) is not dict:
        where = f" field {prefix[:-1]!r}" if prefix else ""
        raise FormatError(f"{path}: {what}{where} is not a JSON object")
    for key, kind in schema.items():
        name = prefix + key
        if key not in obj:
            raise FormatError(f"{path}: {what} lacks field {name!r}")
        if isinstance(kind, dict):
            _check_fields(path, obj[key], kind, what, name + ".")
        elif type(obj[key]) not in kind:
            raise FormatError(
                f"{path}: {what} field {name!r} has the wrong type: {obj[key]!r}"
            )


def save_model(path: str | Path, w: ModelWeights) -> None:
    header = {
        **{name: asdict(getattr(w, attr)) for name, (attr, _) in _SECTIONS.items()},
        "norm_mean": w.norm_mean,
        "norm_std": w.norm_std,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MODL1_MAGIC)
        f.write(struct.pack("<BI", MODL1_VERSION, len(blob)))
        f.write(blob)
        for _, t in w.tensors():
            f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_model(path: str | Path) -> ModelWeights:
    """Read a MODL1 file; its tensors are read-only views of one buffer,
    read once."""
    with open(path, "rb") as f:
        head = f.read(10)
        if head[:5] != MODL1_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:5]!r}, expected {MODL1_MAGIC!r}")
        if len(head) < 10:
            raise FormatError(f"{path}: truncated MODL1 header")
        version, header_len = struct.unpack_from("<BI", head, 5)
        if version != MODL1_VERSION:
            raise FormatError(f"{path}: unknown MODL1 version {version}, expected {MODL1_VERSION}")
        if os.fstat(f.fileno()).st_size < 10 + header_len:
            raise FormatError(f"{path}: truncated MODL1 header payload")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: undecodable MODL1 header: {e}") from e
        _check_fields(path, header, _MODL1_HEADER, "MODL1 header")
        configs = {
            attr: cls(**{key: header[name][key] for key in _MODL1_HEADER[name]})
            for name, (attr, cls) in _SECTIONS.items()
        }
        # Sized from one block, so a header declaring a huge depth fails on
        # the file's size before every tensor is listed.
        one = tensor_layout(replace(configs["config"], depth=1), configs["spec_config"])
        block = sum(math.prod(s) for name, s in one.items() if name.startswith("block0."))
        size = sum(map(math.prod, one.values())) + (configs["config"].depth - 1) * block
        payload = read_float32(f, path, "MODL1 tensor", (size,))
    payload.flags.writeable = False  # every tensor view inherits this
    tensors, offset = {}, 0
    for name, shape in tensor_layout(**configs).items():
        t = payload[offset : offset + math.prod(shape)]
        if not np.isfinite(t).all():
            raise FormatError(f"{path}: tensor {name!r} holds NaN or infinite values")
        tensors[name] = t.reshape(shape)
        offset += t.size
    return ModelWeights.from_tensors(
        tensors, **configs, norm_mean=header["norm_mean"], norm_std=header["norm_std"]
    )


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

    def labels_array(self, n_classes: int) -> np.ndarray:
        if self.task_kind == "single-label":
            labels = [label for _, label in self.entries]
            for label in labels:
                if isinstance(label, bool) or not isinstance(label, (int, np.integer)) or (
                    not 0 <= label < n_classes
                ):
                    raise AlignmentError(
                        f"single-label label {label!r} is not a class index in "
                        f"[0, {n_classes})"
                    )
            return np.array(labels, dtype=np.int64)
        rows = []
        for i, (_, label) in enumerate(self.entries):
            try:
                rows.append(np.asarray(label, dtype=np.float64))
            except (TypeError, ValueError):
                raise AlignmentError(
                    f"manifest entry {i}: multi-label label {label!r} is not a row of numbers"
                ) from None
        for i, row in enumerate(rows):
            if row.shape != (n_classes,):
                raise ShapeError(
                    f"manifest entry {i}: label row of shape {row.shape}, expected "
                    f"{n_classes} classes"
                )
        labels = np.stack(rows) if rows else np.zeros((0, n_classes))
        off = ~((labels == 0) | (labels == 1)).all(axis=1)  # NaN is neither
        if off.any():
            i = int(off.argmax())
            raise AlignmentError(
                f"manifest entry {i}: multi-label row {rows[i].tolist()} holds a value "
                "other than 0 and 1"
            )
        return labels


def save_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    rows = [{"magic": MANI1_MAGIC, "task_kind": manifest.task_kind,
             "clip_seconds": manifest.clip_seconds}]
    for entry_path, label in manifest.entries:
        if isinstance(label, (np.ndarray, np.generic)):
            label = label.tolist()  # plain JSON numbers
        rows.append({"path": entry_path, "label": label})
    Path(path).write_text(
        "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows),
        encoding="utf-8",
    )


def load_manifest(path: str | Path) -> DatasetManifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: manifest is not UTF-8 text: {e}") from e
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: manifest header is not JSON: {e}") from e
    _check_fields(path, header, _MANI1_HEADER, "manifest header")
    if header["magic"] != MANI1_MAGIC:
        raise FormatError(
            f"{path}: bad magic {header['magic']!r}, expected {MANI1_MAGIC!r}"
        )
    if header["task_kind"] not in TASK_KINDS:
        raise FormatError(
            f"{path}: manifest task_kind must be one of {TASK_KINDS}, "
            f"got {header['task_kind']!r}"
        )
    entries = []
    for i, ln in lines[1:]:
        try:
            row = json.loads(ln)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{i}: manifest entry is not JSON: {e}") from e
        _check_fields(path, row, _MANI1_ENTRY, f"manifest line {i}")
        entries.append((row["path"], row["label"]))
    return DatasetManifest(
        entries=entries,
        task_kind=header["task_kind"],
        clip_seconds=header["clip_seconds"],
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

    Walks the MODL1 layout in file order: LayerNorm gains are 1, biases 0,
    and every other tensor is standard normal scaled by 1/sqrt(d), drawn in
    that order from Philox(key=seed). Every tensor is read-only.
    """
    spec_config = spec_config or SpectrogramConfig()
    rng = _rng(seed)
    scale = np.float32(1.0 / np.sqrt(config.embed_dim))
    tensors = {}
    for name, shape in tensor_layout(config, spec_config).items():
        if name.endswith("gain"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith("bias"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            tensors[name] = rng.standard_normal(shape, dtype=np.float32) * scale
        tensors[name].flags.writeable = False
    return ModelWeights.from_tensors(
        tensors, config=config, spec_config=spec_config, norm_mean=norm_mean,
        norm_std=norm_std,
    )


# --------------------------------------------------------------------------
# Synthetic datasets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticDataConfig:
    n_classes: int = 4
    clip_seconds: float = 5.0
    noise_std: float = 0.5
    task_kind: str = "single-label"

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if not (math.isfinite(self.clip_seconds) and self.clip_seconds > 0):
            raise ConfigError(f"clip_seconds must be finite and > 0, got {self.clip_seconds}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(
                f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}"
            )

    @property
    def n_frames(self) -> int:
        return frames_for_duration(self.clip_seconds, SpectrogramConfig().frames_per_second)


def class_templates(cfg: SyntheticDataConfig) -> np.ndarray:
    """Deterministic band-energy template per class, [C x n_mels x frames].

    Class c lights up its own block of mel rows with a class-specific
    temporal ripple on a quiet floor, so classes are linearly separable and
    nearest-template correlation on noiseless samples is exact.
    """
    c, rows, cols = cfg.n_classes, SpectrogramConfig().n_mels, cfg.n_frames
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
    if n_samples < 0:
        raise ConfigError(f"n_samples must be >= 0, got {n_samples}")
    templates = class_templates(cfg)
    shape = (SpectrogramConfig().n_mels, cfg.n_frames)
    specs = np.empty((n_samples, *shape), dtype=np.float32)
    class_ids = np.arange(n_samples, dtype=np.int64) % cfg.n_classes
    for i in range(n_samples):
        noise = _rng(seed, stream=i + 1).standard_normal(shape, dtype=np.float32)
        specs[i] = templates[class_ids[i]] + np.float32(cfg.noise_std) * noise
    if cfg.task_kind == "multi-label":
        return specs, one_hot(class_ids, cfg.n_classes)
    return specs, class_ids


def generate_synthetic_teacher_logits(
    labels: np.ndarray, n_classes: int, seed: int
) -> np.ndarray:
    """Plausible frozen-teacher logits: scaled targets plus seeded noise."""
    y = targets(labels, n_classes)
    rng = _rng(seed, stream=97)
    noise = rng.standard_normal((y.shape[0], n_classes))
    return (TEACHER_SCALE * y + TEACHER_NOISE_STD * noise).astype(np.float32)


# --------------------------------------------------------------------------
# Template-probe head fitting
# --------------------------------------------------------------------------

def fit_head_probe(
    weights: ModelWeights,
    spectrograms: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 16,
) -> HeadWeights:
    """Closed-form linear probe on the frozen encoder's [CLS] embeddings.

    Runs the encoder at r = 0 (no merges) over the fitting set, then solves a ridge
    regression from embeddings to one-hot (or binary) targets. No
    backpropagation anywhere; this is how desk-scale models get an
    above-chance head.
    """
    cls, _ = forward_spectrograms(weights, spectrograms, ToMeConfig(r=0), batch_size)
    x = np.concatenate(
        [cls.astype(np.float64), np.ones((cls.shape[0], 1))], axis=1
    )
    y = targets(labels, weights.config.n_classes)
    gram = x.T @ x
    alpha = PROBE_RIDGE * np.trace(gram) / gram.shape[0]
    coef = np.linalg.solve(gram + alpha * np.eye(gram.shape[0]), x.T @ y)
    linear, bias = coef[:-1].astype(np.float32), coef[-1].astype(np.float32)
    linear.flags.writeable = bias.flags.writeable = False
    return HeadWeights(linear=linear, bias=bias)
