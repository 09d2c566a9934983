"""Inference runner, r-sweep throughput harness, and report emission.

A sweep row measures one reduction factor: the manifest is preloaded into
memory, the timed region is one ``run_inference`` call over the whole set
(label check, patchify + encoder + head, metrics; every r's warmup passes
first, then the measured passes round-robin over r, median per r reported),
and the metric drop is taken against the r = 0 row. Everything except
wall-clock timings is bit-reproducible for fixed inputs. ``threads`` sizes
the encoder's one sample pool, which has max(threads, BLAS pool size)
workers while BLAS runs one thread inside the forward; worker and BLAS
thread counts change timings but never results.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

import numpy as np

from .errors import AlignmentError, ConfigError, ShapeError
from .features import compute_log_mel, fit_frames, load_spec, read_wav
from .head import (
    HeadWeights,
    accuracy,
    argmax_in_positives,
    mean_average_precision,
    softmax,
    sigmoid,
)
from .kd import KdBatch, KdConfig, component_losses, kd_loss, load_teacher_logits
from .model_io import DatasetManifest
from .pool import pool_plan
from .tome import ToMeConfig
from .transformer import ModelWeights, forward_spectrograms

DEFAULT_R_SWEEP = (0, 5, 10, 15, 20, 25, 30, 35, 40)


def _check_run_settings(batch_size: int, threads: int) -> None:
    if batch_size < 1 or threads < 1:
        raise ConfigError("batch_size and threads must be >= 1")


@dataclass(frozen=True)
class BenchConfig:
    r_values: tuple[int, ...] = DEFAULT_R_SWEEP
    batch_size: int = 16
    warmup_runs: int = 2
    measured_runs: int = 3
    threads: int = 1

    def __post_init__(self) -> None:
        if len(self.r_values) == 0:
            raise ConfigError("r sweep must list at least one reduction factor")
        if any(r < 0 for r in self.r_values):
            raise ConfigError(f"reduction factors must be >= 0, got {self.r_values}")
        if self.measured_runs < 3:
            raise ConfigError(
                f"measured_runs must be >= 3, got {self.measured_runs}"
            )
        if self.warmup_runs < 0:
            raise ConfigError(f"warmup_runs must be >= 0, got {self.warmup_runs}")
        _check_run_settings(self.batch_size, self.threads)


@dataclass
class SweepRow:
    r: int
    metric: float
    drop: float
    samples_per_second: float
    final_token_count: int


@dataclass
class SweepResult:
    """One sweep: the settings and encoder pool of the run, then a row per r."""

    metric_name: str
    batch_size: int
    thread_count: int  # the --threads value
    workers: int  # the encoder pool's workers
    blas_pinned: bool  # BLAS ran one thread inside the forward
    warmup_runs: int
    measured_runs: int
    rows: list[SweepRow]


@dataclass
class InferenceResult:
    logits: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray
    metrics: dict[str, float]
    per_block_counts: list[int]
    final_token_counts: np.ndarray


def load_inputs(manifest: DatasetManifest, weights: ModelWeights) -> np.ndarray:
    """Read every manifest entry into one [n x mels x frames] array.

    WAV entries go through the log-mel front end with the model's
    spectrogram config; a SPEC1 entry of the model's shape is read straight
    into its row. Every clip must have the model's mel count; shorter clips
    are zero-padded to the model's frame count, longer ones rejected.
    """
    base = manifest.base_dir or Path(".")
    if not manifest.entries:
        raise ConfigError("manifest lists no samples")
    frames = weights.expected_frames
    stack = np.empty(
        (len(manifest.entries), weights.spec_config.n_mels, frames), dtype=np.float32
    )
    for (rel_path, _), row in zip(manifest.entries, stack):
        path = Path(rel_path)
        if not path.is_absolute():
            path = base / path
        try:
            if path.suffix.lower() == ".wav":
                values = compute_log_mel(read_wav(path), weights.spec_config).values
            else:
                values = load_spec(path, out=row).values
            if values.shape[0] != weights.spec_config.n_mels:
                raise ShapeError(
                    f"clip has {values.shape[0]} mel bins, the model expects "
                    f"{weights.spec_config.n_mels}"
                )
            if values is not row:
                row[...] = fit_frames(values, frames)
        except (ConfigError, ShapeError) as e:  # read_wav/load_spec name the file
            raise type(e)(f"{path}: {e}") from e
    return stack


def _forward_all(
    weights: ModelWeights,
    specs: np.ndarray,
    tome: ToMeConfig,
    batch_size: int,
    threads: int,
) -> tuple[np.ndarray, list[int]]:
    """The one encoder pass of run_inference.

    perfbench/tracing.py times it by this name; ``threads`` sizes the
    encoder's sample pool.
    """
    return forward_spectrograms(weights, specs, tome, batch_size, threads)


def _predict(
    head: HeadWeights, task_kind: str, cls: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(logits, probabilities): linear readout of CLS rows plus the task's
    activation, softmax for single-label and sigmoid for multi-label."""
    logits = cls @ head.linear + head.bias
    probs = softmax(logits) if task_kind == "single-label" else sigmoid(logits)
    return logits, probs


def _metrics(
    probs: np.ndarray, labels: np.ndarray, task_kind: str
) -> dict[str, float]:
    if task_kind == "single-label":
        return {"accuracy": accuracy(probs, labels)}
    return {
        "map": mean_average_precision(probs, labels),
        # reconstruction, not a paper-defined metric; see head module
        "argmax_in_positives": argmax_in_positives(probs, labels),
    }


def _labels(manifest: DatasetManifest, weights: ModelWeights) -> np.ndarray:
    """The manifest's labels, checked against the model's task, clip length
    and classes."""
    if manifest.task_kind != weights.config.task_kind:
        raise AlignmentError(
            f"manifest is {manifest.task_kind}, model is {weights.config.task_kind}"
        )
    if not 0 < manifest.clip_seconds <= weights.config.clip_seconds:  # NaN fails too
        raise AlignmentError(
            f"manifest declares {manifest.clip_seconds} s clips, the model takes "
            f"clips of up to {weights.config.clip_seconds} s"
        )
    return manifest.labels_array(weights.config.n_classes)


def run_inference(
    weights: ModelWeights,
    manifest: DatasetManifest,
    r: int,
    batch_size: int = 16,
    threads: int = 1,
    inputs: np.ndarray | None = None,
) -> InferenceResult:
    """Deterministic predictions plus metrics for one reduction factor."""
    _check_run_settings(batch_size, threads)
    labels = _labels(manifest, weights)
    specs = inputs if inputs is not None else load_inputs(manifest, weights)
    tome = ToMeConfig(r=r)
    cls, counts = _forward_all(weights, specs, tome, batch_size, threads)
    logits, probs = _predict(weights.head, weights.config.task_kind, cls)
    return InferenceResult(
        logits=logits,
        probabilities=probs,
        labels=labels,
        metrics=_metrics(probs, labels, weights.config.task_kind),
        per_block_counts=counts,
        final_token_counts=np.full(specs.shape[0], counts[-1], dtype=np.int64),
    )


def benchmark_throughput(
    weights: ModelWeights,
    manifest: DatasetManifest,
    cfg: BenchConfig,
) -> SweepResult:
    """Sweep r, timing samples/second per pass and scoring the predictions.

    File I/O and model loading stay outside the timed region; each of the
    warmup and measured runs is a full pass over the manifest.
    """
    if 0 not in cfg.r_values:
        raise ConfigError("r sweep must include r = 0; the drop column needs it")
    _labels(manifest, weights)  # a misaligned manifest fails before any clip is read
    specs = load_inputs(manifest, weights)
    metric_name = "accuracy" if weights.config.task_kind == "single-label" else "map"

    r_values = sorted(set(cfg.r_values))
    timings: dict[int, list[float]] = {r: [] for r in r_values}
    results: dict[int, InferenceResult] = {}
    # Every r is warmed up first; the measured passes then cycle through r,
    # so a drift in machine speed is shared by all rows, not borne by one r.
    for _ in range(cfg.warmup_runs + cfg.measured_runs):
        for r in r_values:
            t0 = time.perf_counter()
            results[r] = run_inference(
                weights, manifest, r, cfg.batch_size, cfg.threads, inputs=specs
            )
            timings[r].append(time.perf_counter() - t0)

    workers, blas_entry = pool_plan(cfg.threads)
    rows = []
    for r in r_values:
        metric = results[r].metrics[metric_name]
        seconds = median(timings[r][cfg.warmup_runs:])
        rows.append(
            SweepRow(
                r=r,
                metric=metric,
                drop=metric - rows[0].metric if rows else 0.0,  # first row is r = 0
                samples_per_second=specs.shape[0] / seconds,
                final_token_count=results[r].per_block_counts[-1],
            )
        )
    return SweepResult(
        metric_name=metric_name,
        batch_size=cfg.batch_size,
        thread_count=cfg.threads,
        workers=workers,
        blas_pinned=blas_entry > 1,
        warmup_runs=cfg.warmup_runs,
        measured_runs=cfg.measured_runs,
        rows=rows,
    )


def sweep_report(result: SweepResult) -> tuple[str, str]:
    """(JSON document, CSV table) for one sweep.

    CSV columns are fixed as r,metric,drop,s_per_s,tokens_final with '.'
    decimals; the JSON is the SweepResult itself, run-level fields once at
    the top and one object per row, and parses back to the exact values.
    """
    if not result.rows:
        raise ConfigError("cannot report an empty sweep")
    json_text = json.dumps(asdict(result), sort_keys=True, indent=2) + "\n"
    lines = ["r,metric,drop,s_per_s,tokens_final"]
    for row in result.rows:
        lines.append(
            f"{row.r},{row.metric!r},{row.drop!r},"
            f"{row.samples_per_second!r},{row.final_token_count}"
        )
    return json_text, "\n".join(lines) + "\n"


def kd_eval(
    result: InferenceResult,
    teacher_logits_path: str | Path,
    kd_cfg: KdConfig,
    batch_size: int = 16,
) -> dict:
    """Distillation-loss report of the student logits of one ``run_inference``
    vs stored teacher logits, overall and per batch of ``batch_size``
    samples."""
    teacher = load_teacher_logits(teacher_logits_path)
    n, c = result.logits.shape
    if teacher.shape != (n, c):
        raise AlignmentError(
            f"teacher logits are {teacher.shape[0]} samples x {teacher.shape[1]} "
            f"classes, manifest/model expect {n} x {c}"
        )

    def losses(sl: slice) -> dict[str, float]:
        batch = KdBatch(
            student_logits=result.logits[sl],
            teacher_logits=teacher[sl],
            labels=result.labels[sl],
        )
        loss_g, loss_d = component_losses(batch, kd_cfg)
        return {"loss": kd_loss(batch, kd_cfg), "loss_g": loss_g, "loss_d": loss_d}

    per_batch = [
        {"start": start, "size": min(batch_size, n - start)}
        | losses(slice(start, start + batch_size))
        for start in range(0, n, batch_size)
    ]
    return {
        "lambda": kd_cfg.lam,
        "tau": kd_cfg.tau,
        **losses(slice(None)),
        "per_batch": per_batch,
    }
