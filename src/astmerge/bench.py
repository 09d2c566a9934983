"""Inference runner, r-sweep throughput harness, and report emission.

A sweep row measures one reduction factor: the manifest is preloaded into
memory, the timed region covers patchify + encoder + head over the whole
set (warmup passes first, median of the measured passes reported), and the
metric drop is taken against the r = 0 row. Everything except wall-clock
timings is bit-reproducible for fixed inputs; batch composition is fixed by
batch size alone, so worker threads change timings but never results.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
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
from .kd import KdBatch, KdConfig, component_losses, load_teacher_logits
from .model_io import DatasetManifest
from .tome import ToMeConfig
from .transformer import ModelWeights, forward_spectrograms

DEFAULT_R_SWEEP = (0, 5, 10, 15, 20, 25, 30, 35, 40)


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
        if self.batch_size < 1 or self.threads < 1:
            raise ConfigError("batch_size and threads must be >= 1")


@dataclass
class SweepRow:
    r: int
    metric: float
    drop: float
    samples_per_second: float
    final_token_count: int
    thread_count: int
    warmup_runs: int
    measured_runs: int


@dataclass
class SweepResult:
    metric_name: str
    rows: list[SweepRow]
    batch_size: int


@dataclass
class InferenceResult:
    logits: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray
    task_kind: str
    metrics: dict[str, float]
    per_block_counts: list[int]
    final_token_counts: np.ndarray


def load_inputs(manifest: DatasetManifest, weights: ModelWeights) -> np.ndarray:
    """Read every manifest entry into one [n x mels x frames] array.

    WAV entries go through the log-mel front end with the model's
    spectrogram config; SPEC1 entries are used as-is. Shorter clips are
    zero-padded to the model's frame count, longer ones rejected.
    """
    base = manifest.base_dir or Path(".")
    arrays = []
    for rel_path, _ in manifest.entries:
        path = Path(rel_path)
        if not path.is_absolute():
            path = base / path
        if path.suffix.lower() == ".wav":
            values = compute_log_mel(read_wav(path), weights.spec_config).values
        else:
            values = load_spec(path).values
        arrays.append(fit_frames(values.astype(np.float32), weights.expected_frames))
    if not arrays:
        raise ConfigError("manifest lists no samples")
    return np.stack(arrays)


def _forward_all(
    weights: ModelWeights,
    specs: np.ndarray,
    tome: ToMeConfig | None,
    batch_size: int,
    threads: int,
) -> tuple[np.ndarray, list[int]]:
    """forward_spectrograms with optional batch-level thread parallelism.

    Batch boundaries depend only on batch_size, so results are identical
    for every thread count; workers just process disjoint batches.
    """
    n = specs.shape[0]
    if threads <= 1 or n <= batch_size:
        return forward_spectrograms(weights, specs, tome, batch_size)
    starts = list(range(0, n, batch_size))

    def run(start: int) -> tuple[np.ndarray, list[int]]:
        return forward_spectrograms(
            weights, specs[start : start + batch_size], tome, batch_size
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, starts))
    cls = np.concatenate([p[0] for p in parts], axis=0)
    return cls, parts[0][1]


def _predict(
    head: HeadWeights, task_kind: str, cls: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(logits, probabilities): linear readout of CLS rows plus the task's
    activation, softmax for single-label and sigmoid for multi-label."""
    if head.linear.ndim != 2 or head.linear.shape[0] != cls.shape[-1] or (
        head.bias.shape != head.linear.shape[1:]
    ):
        raise ShapeError(
            f"head weights {head.linear.shape} and bias {head.bias.shape} do not "
            f"fit CLS width {cls.shape[-1]}"
        )
    logits = cls @ head.linear + head.bias
    if task_kind == "single-label":
        probs = softmax(logits)
    elif task_kind == "multi-label":
        probs = sigmoid(logits)
    else:
        raise ConfigError(f"unknown task kind {task_kind!r}")
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
    """The manifest's labels, checked against the model's task and classes."""
    if manifest.task_kind != weights.config.task_kind:
        raise AlignmentError(
            f"manifest is {manifest.task_kind}, model is {weights.config.task_kind}"
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
    labels = _labels(manifest, weights)
    specs = inputs if inputs is not None else load_inputs(manifest, weights)
    tome = ToMeConfig(r=r)
    cls, counts = _forward_all(weights, specs, tome, batch_size, threads)
    logits, probs = _predict(weights.head, weights.config.task_kind, cls)
    return InferenceResult(
        logits=logits,
        probabilities=probs,
        labels=labels,
        task_kind=weights.config.task_kind,
        metrics=_metrics(probs, labels, weights.config.task_kind),
        per_block_counts=counts,
        final_token_counts=np.full(specs.shape[0], counts[-1], dtype=np.int64),
    )


def benchmark_throughput(
    weights: ModelWeights,
    manifest: DatasetManifest,
    cfg: BenchConfig,
    inputs: np.ndarray | None = None,
) -> SweepResult:
    """Sweep r, timing samples/second per pass and scoring the predictions.

    File I/O and model loading stay outside the timed region; each of the
    warmup and measured runs is a full pass over the manifest.
    """
    if 0 not in cfg.r_values:
        raise ConfigError("r sweep must include r = 0; the drop column needs it")
    labels = _labels(manifest, weights)
    specs = inputs if inputs is not None else load_inputs(manifest, weights)
    task = weights.config.task_kind
    metric_name = "accuracy" if task == "single-label" else "map"
    n = specs.shape[0]

    rows = []
    baseline = None
    for r in sorted(set(cfg.r_values)):
        tome = ToMeConfig(r=r)
        for _ in range(cfg.warmup_runs):
            _forward_all(weights, specs, tome, cfg.batch_size, cfg.threads)
        timings = []
        probs = None
        counts: list[int] = []
        for _ in range(cfg.measured_runs):
            t0 = time.perf_counter()
            cls, counts = _forward_all(weights, specs, tome, cfg.batch_size, cfg.threads)
            _, probs = _predict(weights.head, task, cls)
            timings.append(time.perf_counter() - t0)
        metric = _metrics(probs, labels, task)[metric_name]
        if baseline is None:
            baseline = metric  # first row is r = 0
        rows.append(
            SweepRow(
                r=r,
                metric=metric,
                drop=metric - baseline,
                samples_per_second=n / median(timings),
                final_token_count=counts[-1],
                thread_count=cfg.threads,
                warmup_runs=cfg.warmup_runs,
                measured_runs=cfg.measured_runs,
            )
        )
    return SweepResult(
        metric_name=metric_name,
        rows=rows,
        batch_size=cfg.batch_size,
    )


def sweep_report(result: SweepResult) -> tuple[str, str]:
    """(JSON document, CSV table) for one sweep.

    CSV columns are fixed as r,metric,drop,s_per_s,tokens_final with '.'
    decimals; the JSON carries every SweepRow field and parses back to the
    exact values.
    """
    if not result.rows:
        raise ConfigError("cannot report an empty sweep")
    doc = {
        "metric_name": result.metric_name,
        "batch_size": result.batch_size,
        "rows": [asdict(row) for row in result.rows],
    }
    json_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = ["r,metric,drop,s_per_s,tokens_final"]
    for row in result.rows:
        lines.append(
            f"{row.r},{row.metric!r},{row.drop!r},"
            f"{row.samples_per_second!r},{row.final_token_count}"
        )
    return json_text, "\n".join(lines) + "\n"


def parse_sweep_report(json_text: str) -> SweepResult:
    doc = json.loads(json_text)
    return SweepResult(
        metric_name=doc["metric_name"],
        rows=[SweepRow(**row) for row in doc["rows"]],
        batch_size=doc["batch_size"],
    )


def kd_eval(
    result: InferenceResult,
    teacher_logits_path: str | Path,
    kd_cfg: KdConfig,
    r: int,
    batch_size: int = 16,
) -> dict:
    """Distillation-loss report of the student logits of one ``run_inference``
    at reduction factor ``r`` vs stored teacher logits, overall and per batch
    of ``batch_size`` samples."""
    teacher = load_teacher_logits(teacher_logits_path)
    n, c = result.logits.shape
    if teacher.shape != (n, c):
        raise AlignmentError(
            f"teacher logits are {teacher.shape[0]} samples x {teacher.shape[1]} "
            f"classes, manifest/model expect {n} x {c}"
        )
    labels = result.labels
    full = KdBatch(
        student_logits=result.logits, teacher_logits=teacher, labels=labels
    )
    loss_g, loss_d = component_losses(full, kd_cfg)
    per_batch = []
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        bg, bd = component_losses(
            KdBatch(
                student_logits=result.logits[sl],
                teacher_logits=teacher[sl],
                labels=labels[sl],
            ),
            kd_cfg,
        )
        per_batch.append(
            {
                "start": start,
                "size": sl.stop - start,
                "loss": kd_cfg.lam * bg + (1.0 - kd_cfg.lam) * bd,
                "loss_g": bg,
                "loss_d": bd,
            }
        )
    return {
        "lambda": kd_cfg.lam,
        "tau": kd_cfg.tau,
        "r": r,
        "loss": kd_cfg.lam * loss_g + (1.0 - kd_cfg.lam) * loss_d,
        "loss_g": loss_g,
        "loss_d": loss_d,
        "per_batch": per_batch,
    }
