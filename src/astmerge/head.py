"""Classification head and evaluation metrics.

The [CLS] embedding feeds one linear layer; probabilities come from softmax
(single-label) or elementwise sigmoid (multi-label). Metrics are top-1
accuracy and mean average precision in the precision-at-each-positive form
standard for audio tagging, with deterministic lowest-index tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

# softmax + accuracy, or sigmoid + mAP
TASK_KINDS = ("single-label", "multi-label")


@dataclass(frozen=True)
class HeadWeights:
    linear: np.ndarray  # [d x n_classes]
    bias: np.ndarray  # [n_classes]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, stable for large logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """[n x n_classes] float64 0/1 targets from a class-index vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError("single-label targets must be an index vector")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"label index outside [0, {n_classes})")
    targets = np.zeros((labels.size, n_classes), dtype=np.float64)
    targets[np.arange(labels.size), labels] = 1.0
    return targets


def targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """float64 targets: a class-index vector one-hot encoded, a binary
    [n x n_classes] label matrix as given."""
    labels = np.asarray(labels)
    return one_hot(labels, n_classes) if labels.ndim == 1 else labels.astype(np.float64)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits, dtype=np.float64)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out.astype(logits.dtype) if logits.dtype == np.float32 else out


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax probability hits the label.

    Argmax ties resolve to the lowest class index. Single-label only.
    """
    labels = np.asarray(labels)
    if probs.shape[0] == 0:
        raise ConfigError("accuracy over an empty sample set is undefined")
    if probs.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"{probs.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP for one class: mean precision at each positive, ranked by
    descending score with ties going to the lower sample index."""
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order].astype(bool)
    n_pos = int(ranked.sum())
    if n_pos == 0:
        raise ConfigError("average precision undefined without positives")
    hits = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    return float((hits[ranked] / ranks[ranked]).sum() / n_pos)


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Macro mAP over classes; classes with no positives are excluded."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    per_class = [
        average_precision(scores[:, c], labels[:, c])
        for c in range(scores.shape[1])
        if labels[:, c].sum() > 0
    ]
    if not per_class:
        raise ConfigError("no class has a positive label; mAP undefined")
    return float(np.mean(per_class))


def argmax_in_positives(scores: np.ndarray, labels: np.ndarray) -> float:
    """Multi-label 'accuracy' reconstruction: how often the top-scoring
    class is among the sample's positives. Reported for orientation only;
    mAP is the real multi-label metric."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    top = np.argmax(scores, axis=1)
    return float(np.mean(labels[np.arange(labels.shape[0]), top] > 0))
