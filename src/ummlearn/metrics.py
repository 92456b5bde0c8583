"""Evaluation metrics that stay informative under class imbalance."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .numerics import as_labels

logger = logging.getLogger(__name__)


@dataclass
class ConfusionCounts:
    """One-vs-rest confusion counts per class."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes: int) -> "ConfusionCounts":
        t = as_labels(y_true, (np.size(y_true),), n_classes)
        p = as_labels(y_pred, t.shape, n_classes)
        # confusion matrix: row = true class, column = predicted class
        cm = np.bincount(t * n_classes + p, minlength=n_classes * n_classes).reshape(n_classes, -1)
        tp = cm.diagonal().astype(np.int64)
        fp = cm.sum(axis=0) - tp
        fn = cm.sum(axis=1) - tp
        return cls(tp=tp, fp=fp, fn=fn, tn=t.size - tp - fp - fn)

    @property
    def n_positive(self) -> np.ndarray:
        return self.tp + self.fn

    @property
    def n_negative(self) -> np.ndarray:
        return self.tn + self.fp


def _safe_divide(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    if not np.all(ok):
        logger.debug("degenerate %s: 0/0 mapped to 0 for classes %s", what, np.flatnonzero(~ok))
    return out


def bca(counts: ConfusionCounts) -> float:
    """Balanced classification accuracy 0.5 tp/N_p + 0.5 tn/N_n, macro-averaged.

    Undefined, and so nan, unless every class has positive and negative samples.
    """
    n_pos = counts.n_positive
    n_neg = counts.n_negative
    if np.any(n_pos == 0) or np.any(n_neg == 0):
        return float("nan")
    per_class = 0.5 * counts.tp / n_pos + 0.5 * counts.tn / n_neg
    return float(per_class.mean())


@dataclass
class PrecisionRecallF1:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    @property
    def macro_f1(self) -> float:
        return float(self.f1.mean())


def precision_recall_f1(counts: ConfusionCounts) -> PrecisionRecallF1:
    """Per-class precision/recall/F1 with the 0/0 -> 0 convention."""
    precision = _safe_divide(counts.tp.astype(np.float64), counts.tp + counts.fp, "precision")
    recall = _safe_divide(counts.tp.astype(np.float64), counts.n_positive, "recall")
    f1 = _safe_divide(2.0 * precision * recall, precision + recall, "f1")
    return PrecisionRecallF1(precision=precision, recall=recall, f1=f1)


def g_mean(counts: ConfusionCounts) -> float:
    """Geometric mean of the per-class recalls; zero if any class is never recalled."""
    recall = precision_recall_f1(counts).recall
    if np.any(recall == 0):
        return 0.0
    return float(np.exp(np.mean(np.log(recall))))


def iba(counts: ConfusionCounts) -> float:
    """Index of balanced accuracy, macro-averaged one-vs-rest.

    Per class: (1 + alpha (TPR - TNR)) * TPR * TNR with alpha = 0.1, the
    dominance-weighted squared G-mean of the binary view.
    """
    tpr = _safe_divide(counts.tp.astype(np.float64), counts.n_positive, "tpr")
    tnr = _safe_divide(counts.tn.astype(np.float64), counts.n_negative, "tnr")
    per_class = (1.0 + 0.1 * (tpr - tnr)) * tpr * tnr
    return float(per_class.mean())

