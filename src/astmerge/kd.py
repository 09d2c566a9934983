"""Cross-model knowledge distillation loss over precomputed teacher logits.

The training objective is a convex combination of a ground-truth term and a
distillation term:

    loss = lambda * L_g(act(Z_s), y) + (1 - lambda) * L_d(act(Z_s), act(Z_t / tau))

Only the teacher logits are temperature-scaled. Single-label tasks use
softmax with cross-entropy for both terms (soft targets for L_d);
multi-label tasks use sigmoid with mean binary cross-entropy. The teacher
is frozen: its logits arrive from a ``TLOG1`` file and are never modified.
The gradient with respect to the student logits is implemented analytically
and checked against finite differences in the tests. All math runs in
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .features import load_matrix, save_matrix
from .head import TASK_KINDS, sigmoid, softmax, targets

TLOG1_MAGIC = b"TLOG1"


@dataclass(frozen=True)
class KdConfig:
    lam: float = 0.1
    tau: float = 1.0
    task_kind: str = "single-label"

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"temperature must be finite and positive, got {self.tau}")
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.task_kind!r}")


@dataclass
class KdBatch:
    """Student logits, frozen teacher logits, and ground-truth labels.

    ``labels`` is a class-index vector or a binary [batch x classes]
    matrix; ``head.targets`` turns either into float64 targets.
    """

    student_logits: np.ndarray
    teacher_logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.student_logits = np.asarray(self.student_logits, dtype=np.float64)
        self.teacher_logits = np.asarray(self.teacher_logits, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.student_logits.shape != self.teacher_logits.shape:
            raise ShapeError(
                f"student logits {self.student_logits.shape} vs teacher "
                f"{self.teacher_logits.shape}"
            )
        if self.student_logits.ndim != 2:
            raise ShapeError("logits must be [batch x classes]")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _bce_with_logits(z: np.ndarray, targets: np.ndarray) -> float:
    # max(z,0) - z*t + log(1 + exp(-|z|)), stable for any logit magnitude.
    raw = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    return float(raw.mean())


def _ground_truth(b: KdBatch) -> np.ndarray:
    """The labels as float64 targets (``head.targets``), shaped like the logits."""
    y = targets(b.labels, b.student_logits.shape[1])
    if y.shape != b.student_logits.shape:
        raise ShapeError(f"targets {y.shape} vs logits {b.student_logits.shape}")
    return y


def component_losses(b: KdBatch, cfg: KdConfig) -> tuple[float, float]:
    """(ground-truth loss, distillation loss), both lambda-independent."""
    z_s, z_t = b.student_logits, b.teacher_logits
    y = _ground_truth(b)
    if cfg.task_kind == "single-label":
        n = z_s.shape[0]
        log_p = _log_softmax(z_s)
        loss_g = float(-(y * log_p).sum() / n)
        soft = softmax(z_t / cfg.tau)
        loss_d = float(-(soft * log_p).sum() / n)
    else:
        loss_g = _bce_with_logits(z_s, y)
        loss_d = _bce_with_logits(z_s, sigmoid(z_t / cfg.tau))
    return loss_g, loss_d


def kd_loss(b: KdBatch, cfg: KdConfig) -> float:
    """lambda * loss_g + (1 - lambda) * loss_d, batch-mean reduction."""
    loss_g, loss_d = component_losses(b, cfg)
    return cfg.lam * loss_g + (1.0 - cfg.lam) * loss_d


def kd_loss_grad(b: KdBatch, cfg: KdConfig) -> np.ndarray:
    """Analytic d(loss)/d(student_logits), [batch x classes].

    Softmax cross-entropy and sigmoid BCE share the (p - target) form, so
    per row the gradient is lambda*(p_s - y) + (1-lambda)*(p_s - p_t),
    scaled by the same mean reduction as the loss.
    """
    z_s, z_t = b.student_logits, b.teacher_logits
    y = _ground_truth(b)
    n, c = z_s.shape
    if cfg.task_kind == "single-label":
        p_s = softmax(z_s)
        p_t = softmax(z_t / cfg.tau)
        scale = 1.0 / n
    else:
        p_s = sigmoid(z_s)
        p_t = sigmoid(z_t / cfg.tau)
        scale = 1.0 / (n * c)
    return scale * (cfg.lam * (p_s - y) + (1.0 - cfg.lam) * (p_s - p_t))


def save_teacher_logits(path: str | Path, logits: np.ndarray) -> None:
    """Write TLOG1: an [n_samples x n_classes] matrix."""
    save_matrix(path, TLOG1_MAGIC, logits)


def load_teacher_logits(path: str | Path) -> np.ndarray:
    return load_matrix(path, TLOG1_MAGIC)
