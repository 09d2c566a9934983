"""Deterministic benchmark fixtures, written before the measured process starts.

Run as a script:

    python3 perfbench/fixtures.py --workload desk_r0 --seed 3 --out DIR

It writes, under DIR, ``model.modl`` (MODL1), ``manifest.jsonl`` (MANI1)
and the clips it lists, plus ``teacher.tlog`` (TLOG1) for the WAV set.

The model weights and the probe set the head is fit on are the same for
every seed: the workload is "this model, served these requests". The seed
draws the evaluation clips, which the measured process serves as requests.
Probe and evaluation clips come from disjoint Philox keys (odd vs even), so
the head never sees an evaluation clip.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

# astmerge is imported from this checkout's sources, never from elsewhere.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from astmerge import (
    DatasetManifest,
    ModelConfig,
    Spectrogram,
    SpectrogramConfig,
    SyntheticDataConfig,
    Waveform,
    compute_log_mel,
    fit_head_probe,
    generate_synthetic_dataset,
    generate_synthetic_model,
    save_manifest,
    save_model,
    save_spec,
    save_teacher_logits,
)
from astmerge.features import write_wav
from astmerge.model_io import generate_synthetic_teacher_logits
from workloads import FIXTURES, WORKLOADS, FixtureSpec

MODEL_SEED = 0
PROBE_KEY = 1  # odd; evaluation keys are even
SAMPLE_RATE = 16000
# Class c sounds as tones inside its own band; bands are far apart on the
# mel axis so several classes can sound at once and stay separable.
TONE_BANDS_HZ = ((250.0, 500.0), (700.0, 1300.0), (1800.0, 3000.0), (4000.0, 6500.0))
P_ACTIVE = 0.4


def eval_key(seed: int) -> int:
    return 2 * seed + 2


def _rng(key: int, stream: int) -> np.random.Generator:
    mask = (1 << 64) - 1
    return np.random.Generator(np.random.Philox(key=((key & mask) << 64) | stream))


def tone_clip(
    key: int, index: int, n_classes: int, seconds: float, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """One clip of band-limited tones plus white noise, and its multi-hot label.

    Each class is active with probability P_ACTIVE (at least one always is);
    an active class contributes two tones with seeded frequency, amplitude,
    phase and on/off times inside the clip.
    """
    rng = _rng(key, index + 1)
    n = int(round(SAMPLE_RATE * seconds))
    active = rng.random(n_classes) < P_ACTIVE
    if not active.any():
        active[rng.integers(n_classes)] = True
    t = np.arange(n) / SAMPLE_RATE
    x = noise * rng.standard_normal(n)
    for c in np.flatnonzero(active):
        lo, hi = TONE_BANDS_HZ[c % len(TONE_BANDS_HZ)]
        for _ in range(2):
            freq = rng.uniform(lo, hi)
            amp = rng.uniform(0.05, 0.15)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            on = rng.uniform(0.0, 0.4 * seconds)
            off = rng.uniform(on + 0.3 * seconds, seconds)
            gate = (t >= on) & (t < off)
            x += amp * gate * np.sin(2.0 * np.pi * freq * t + phase)
    return np.clip(x, -1.0, 1.0), active.astype(np.float64)


def _model_config(spec: FixtureSpec) -> ModelConfig:
    return ModelConfig(
        depth=spec.depth,
        embed_dim=spec.embed_dim,
        n_heads=spec.n_heads,
        clip_seconds=spec.clip_seconds,
        n_classes=spec.n_classes,
        task_kind=spec.task_kind,
    )


def write_desk(spec: FixtureSpec, seed: int, out: Path) -> None:
    data_cfg = SyntheticDataConfig(
        n_classes=spec.n_classes,
        clip_seconds=spec.clip_seconds,
        noise_std=spec.noise,
        task_kind=spec.task_kind,
    )
    weights = generate_synthetic_model(MODEL_SEED, _model_config(spec))
    probe_specs, probe_labels = generate_synthetic_dataset(PROBE_KEY, spec.n_probe, data_cfg)
    weights.head = fit_head_probe(weights, probe_specs, probe_labels)
    save_model(out / "model.modl", weights)

    specs, labels = generate_synthetic_dataset(eval_key(seed), spec.n_eval, data_cfg)
    (out / "specs").mkdir()
    entries = []
    for i in range(spec.n_eval):
        rel = f"specs/{i:05d}.spec"
        save_spec(out / rel, Spectrogram(values=specs[i]))
        entries.append((rel, int(labels[i])))
    save_manifest(
        out / "manifest.jsonl",
        DatasetManifest(entries=entries, task_kind=spec.task_kind, clip_seconds=spec.clip_seconds),
    )


def write_short_wav(spec: FixtureSpec, seed: int, out: Path) -> None:
    spec_cfg = SpectrogramConfig()
    probe = [
        tone_clip(PROBE_KEY, i, spec.n_classes, spec.clip_seconds, spec.noise)
        for i in range(spec.n_probe)
    ]
    mels = np.stack(
        [
            compute_log_mel(Waveform(samples=x, sample_rate=SAMPLE_RATE), spec_cfg).values
            for x, _ in probe
        ]
    )
    weights = generate_synthetic_model(
        MODEL_SEED,
        _model_config(spec),
        spec_config=spec_cfg,
        norm_mean=float(mels.mean()),
        norm_std=float(mels.std()),
    )
    weights.head = fit_head_probe(weights, mels, np.stack([y for _, y in probe]))
    save_model(out / "model.modl", weights)

    (out / "wav").mkdir()
    entries, labels = [], []
    for i in range(spec.n_eval):
        x, y = tone_clip(eval_key(seed), i, spec.n_classes, spec.clip_seconds, spec.noise)
        rel = f"wav/{i:05d}.wav"
        write_wav(out / rel, Waveform(samples=x, sample_rate=SAMPLE_RATE))
        entries.append((rel, y))
        labels.append(y)
    save_manifest(
        out / "manifest.jsonl",
        DatasetManifest(entries=entries, task_kind=spec.task_kind, clip_seconds=spec.clip_seconds),
    )
    teacher = generate_synthetic_teacher_logits(np.stack(labels), spec.n_classes, seed)
    save_teacher_logits(out / "teacher.tlog", teacher)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="empty or missing directory")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec = FIXTURES[args.scale][workload.fixture]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if workload.fixture == "desk":
        write_desk(spec, args.seed, out)
    else:
        write_short_wav(spec, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
