"""Log-mel spectrogram front end.

Converts a mono waveform into the 128 x 100t log-mel matrix the encoder
consumes (the model's own mean/std shift is applied by the encoder). The
front end is AST's and fixed: 25 ms periodic Hann window, FFT of the next
power of two, 10 ms hop (100 frames/s), centered framing with reflection
padding so a t-second clip yields exactly ceil(100t) frames, power-spectrum
mel filterbank from 0 Hz to Nyquist, natural log with a 1e-10 floor; only
the mel count and the frame rate are a model's own. Also owns the matrix file
layout that ``SPEC1`` spectrograms and ``TLOG1`` teacher logits share, the
float32 payload read they and ``MODL1`` use, and 16-bit PCM WAV ingestion.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError

SPEC1_MAGIC = b"SPEC1"

# Guard against float noise in duration-derived frame counts
# (e.g. 100 * 0.16 = 16.000000000000004 must still mean 16 frames).
_DURATION_EPS = 1e-9

# Highest WAV sample rate read_wav accepts. The mel filterbank grows with the
# rate (128 x 16385 float64, 16.8 MB, at 768 kHz); a corrupted header rate
# would otherwise ask for gigabytes.
MAX_SAMPLE_RATE = 768_000


# The fixed front-end settings (see the module docstring).
WINDOW_MS = 25.0
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class SpectrogramConfig:
    """A model's mel count and frame rate; the defaults give 128 x 100t."""

    n_mels: int = 128
    frames_per_second: int = 100

    def __post_init__(self) -> None:
        for name in ("n_mels", "frames_per_second"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(sample_rate * WINDOW_MS / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        hop_ms = 1000.0 / self.frames_per_second  # via ms, so the rounding is unchanged
        return int(round(sample_rate * hop_ms / 1000.0))

    def fft_samples(self, sample_rate: int) -> int:
        """The next power of two >= the window."""
        return 1 << (self.window_samples(sample_rate) - 1).bit_length()


@dataclass(frozen=True)
class Waveform:
    """Mono waveform with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ConfigError("waveform must be a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass
class Spectrogram:
    """Log-mel matrix [n_mels x n_frames]."""

    values: np.ndarray


def frames_for_duration(seconds: float, frames_per_second: int = 100) -> int:
    """Frame count of a clip: ceil(fps * seconds), robust to float noise."""
    return int(math.ceil(frames_per_second * seconds - _DURATION_EPS))


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=4)
def mel_filterbank(
    cfg: SpectrogramConfig, sample_rate: int
) -> tuple[np.ndarray, np.ndarray]:
    """Triangular mel filterbank and its center frequencies; cached, so read-only.

    Returns (weights [n_mels x n_fft_bins], centers_hz [n_mels]). Triangles
    are peak-normalized (height 1) so a pure tone is maximal in the filter
    whose center is nearest the tone.
    """
    n_fft = cfg.fft_samples(sample_rate)
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins, dtype=np.float64) * sample_rate / n_fft

    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), cfg.n_mels + 2)
    hz_points = np.asarray(mel_to_hz(mel_points))
    weights = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (fft_freqs - left) / max(center - left, 1e-12)
        falling = (right - fft_freqs) / max(right - center, 1e-12)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    centers = hz_points[1:-1]
    weights.flags.writeable = centers.flags.writeable = False
    return weights, centers


@functools.lru_cache(maxsize=4)
def _hann_window(length: int) -> np.ndarray:
    # Periodic Hann, the STFT convention; cached, so read-only.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    window.flags.writeable = False
    return window


def compute_log_mel(w: Waveform, cfg: SpectrogramConfig) -> Spectrogram:
    """Log-mel spectrogram of a waveform.

    Frame k is centered at sample k * hop; the signal is reflection-padded by
    half a window on both sides, so a t-second clip yields ceil(100t) frames.
    Output values are ln(mel_power + LOG_FLOOR) as float32.
    """
    sr = w.sample_rate
    win = cfg.window_samples(sr)
    hop = cfg.hop_samples(sr)
    if hop < 1 or win < 2:
        raise ConfigError(f"sample_rate {sr} too low for the window/hop")
    n_fft = cfg.fft_samples(sr)
    fb, _ = mel_filterbank(cfg, sr)

    x = w.samples
    n_frames = int(math.ceil(x.size / hop))
    pad = win // 2
    if x.size > pad:
        padded = np.pad(x, pad, mode="reflect")
    else:
        padded = np.pad(x, pad, mode="constant")  # degenerate ultra-short clip

    window = _hann_window(win)
    # padded.size >= x.size - 1 + win >= (n_frames - 1) * hop + win: every frame is whole.
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop][:n_frames]
    spectrum = np.fft.rfft(frames * window, n=n_fft, axis=1)
    power = np.abs(spectrum) ** 2  # [n_frames x n_bins]
    mel = power @ fb.T  # [n_frames x n_mels]
    values = np.log(mel + LOG_FLOOR).T.astype(np.float32)
    return Spectrogram(values=values)


def read_wav(path: str | Path) -> Waveform:
    """Read a 16-bit PCM mono WAV file into a [-1, 1] waveform."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise FormatError(
                    f"{path}: expected mono WAV, got {f.getnchannels()} channels"
                )
            if f.getsampwidth() != 2:
                raise FormatError(
                    f"{path}: expected 16-bit PCM WAV, got {8 * f.getsampwidth()}-bit"
                )
            sr, n_frames = f.getframerate(), f.getnframes()
            raw = f.readframes(n_frames)
    except (wave.Error, EOFError) as e:  # not RIFF/WAVE, or a truncated header
        raise FormatError(f"{path}: unreadable WAV file: {e or 'truncated header'}") from e
    if len(raw) != 2 * n_frames:
        raise FormatError(
            f"{path}: WAV header declares {n_frames} samples, data holds {len(raw) / 2:g}"
        )
    if sr > MAX_SAMPLE_RATE:
        raise FormatError(f"{path}: WAV sample rate {sr} Hz exceeds {MAX_SAMPLE_RATE} Hz")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=sr)


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a waveform as 16-bit PCM mono WAV (tests and data generation)."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())


def save_matrix(path: str | Path, magic: bytes, values: np.ndarray) -> None:
    """Write the layout SPEC1 and TLOG1 share: 5-byte magic, u32 rows,
    u32 cols, float32 row-major."""
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 2:
        raise ShapeError(f"{magic.decode()} holds a 2-D matrix, got shape {values.shape}")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", *values.shape))
        f.write(values.tobytes())


def read_float32(f, path: str | Path, what: str, shape: tuple[int, ...],
                 out: np.ndarray | None = None) -> np.ndarray:
    """Read the rest of the open file ``f``, which must be exactly a float32
    array of ``shape``, into ``out`` when ``out`` has that shape, else into a
    new array. The size is checked against the file before any allocation."""
    nbytes = 4 * math.prod(shape)
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != nbytes:
        raise FormatError(f"{path}: {what} payload is {size} bytes, expected {nbytes}")
    out = out if out is not None and out.shape == shape else np.empty(shape, "<f4")
    if f.readinto(out) != nbytes:
        raise FormatError(f"{path}: {what} file shrank while it was read")
    return out


def load_matrix(path: str | Path, magic: bytes, out: np.ndarray | None = None) -> np.ndarray:
    """Read a ``save_matrix`` file, into ``out`` if the shapes match; a NaN or
    infinite value is a format error."""
    name = magic.decode()
    with open(path, "rb") as f:
        head = f.read(13)
        if head[:5] != magic:
            raise FormatError(f"{path}: bad magic {head[:5]!r}, expected {magic!r}")
        if len(head) < 13:
            raise FormatError(f"{path}: truncated {name} header")
        values = read_float32(f, path, name, struct.unpack_from("<II", head, 5), out)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: {name} holds NaN or infinite values")
    return values


def save_spec(path: str | Path, s: Spectrogram) -> None:
    """Write SPEC1: a [n_mels x n_frames] matrix (mel-major)."""
    save_matrix(path, SPEC1_MAGIC, s.values)


def load_spec(path: str | Path, out: np.ndarray | None = None) -> Spectrogram:
    """Read a SPEC1 file (into ``out`` if the shapes match); no front-end config."""
    return Spectrogram(values=load_matrix(path, SPEC1_MAGIC, out))


def fit_frames(values: np.ndarray, expected_frames: int) -> np.ndarray:
    """Zero-pad a spectrogram, or a stack of them, in time (the last axis)
    to the model's frame count.

    Empty and longer clips are rejected: positional tables are sized for one
    declared clip length and interpolation is out of scope.
    """
    n_frames = values.shape[-1]
    if n_frames == 0:
        raise ShapeError("clip has no frames")
    if n_frames > expected_frames:
        raise ShapeError(
            f"clip has {n_frames} frames but the model expects at most "
            f"{expected_frames}; longer clips are rejected"
        )
    if n_frames == expected_frames:
        return values
    out = np.zeros((*values.shape[:-1], expected_frames), dtype=np.float32)
    out[..., :n_frames] = values
    return out
