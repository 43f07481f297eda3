"""Evaluation and diagnostic quantities: accuracies and similarity scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class EvalReport:
    overall_accuracy: float
    per_class_accuracy: np.ndarray  # length num_classes, NaN for absent classes


def accuracy(predictions, truth) -> float:
    p = np.asarray(predictions).reshape(-1)
    t = np.asarray(truth).reshape(-1)
    if p.size == 0 or p.size != t.size:
        raise ConfigurationError("predictions and truth must be equal-length and nonempty")
    return float(np.mean(p == t))


def per_class_accuracy(predictions, truth, num_classes: int) -> np.ndarray:
    """Per-class recall; classes absent from the truth come back as NaN and
    are excluded from any macro average."""
    p = np.asarray(predictions).reshape(-1)
    t = np.asarray(truth).reshape(-1)
    out = np.full(num_classes, np.nan)
    for c in range(num_classes):
        mask = t == c
        if mask.any():
            out[c] = float(np.mean(p[mask] == c))
    return out


def macro_accuracy(per_class: np.ndarray) -> float:
    present = ~np.isnan(per_class)
    return float(per_class[present].mean()) if present.any() else float("nan")


def mean_similarity_both(sim: np.ndarray, positives: np.ndarray):
    """(averaged, literal) anchor-to-positive similarity.

    ``positives`` holds the flat row-major indices into ``sim`` of the
    positive pairs (``ConsistencyResult.positives``); only those entries are
    read. averaged: per-anchor mean over positives, then mean over anchors
    (bounded diagnostic); literal: per-anchor sum over positives, then mean
    over anchors. Anchors without positives are excluded; (0.0, 0.0) if none
    remain.
    """
    n, m = sim.shape
    rows = positives // m
    counts = np.bincount(rows, minlength=n)
    keep = counts > 0
    if not keep.any():
        return 0.0, 0.0
    sums = np.bincount(rows, weights=sim.ravel()[positives], minlength=n)[keep]
    return float((sums / counts[keep]).mean()), float(sums.mean())


def pseudo_label_accuracy(assignment_labels, eval_truth) -> float:
    """Fraction of anchors whose pseudo-label matches the held-out label."""
    a = np.asarray(assignment_labels).reshape(-1)
    t = np.asarray(eval_truth).reshape(-1)
    if a.size == 0 or a.size != t.size:
        raise ConfigurationError("assignment and truth must be equal-length and nonempty")
    labeled = t >= 0
    if not labeled.any():
        return float("nan")
    return float(np.mean(a[labeled] == t[labeled]))
