"""Classification metrics: confusion matrix, WA/UA, per-class P/R/F1.

Conventions: weighted accuracy (wa) is plain overall accuracy,
unweighted accuracy (ua) is the macro average of per-class recalls.
Weighted averages use true-class support as weights, which makes the
weighted-average recall identical to wa.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from .errors import ParameterError
from .kernels import Array, as_labels


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    confusion: Array          # (classes, classes) int64, rows = true
    wa: float
    ua: float
    per_class: List[ClassScores]
    weighted_avg: ClassScores
    empty_prediction_classes: List[int]   # classes never predicted
    missing_classes: List[int]            # classes with zero support, excluded from ua

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def confusion_matrix(true_labels: Sequence[int], predicted_labels: Sequence[int], classes: int) -> Array:
    """Count matrix: entry (i, j) is how often true class i was predicted as j."""
    t = as_labels(true_labels, "confusion_matrix")
    p = as_labels(predicted_labels, "confusion_matrix")
    if t.shape != p.shape or t.ndim != 1:
        raise ParameterError(
            f"confusion_matrix: label arrays must be equal-length 1-D, got {t.shape} vs {p.shape}"
        )
    if classes < 1:
        raise ParameterError(f"confusion_matrix: classes must be >= 1, got {classes}")
    if t.size and (t.min() < 0 or t.max() >= classes or p.min() < 0 or p.max() >= classes):
        raise ParameterError("confusion_matrix: label out of range")
    # each (true, predicted) pair as one flat index of the matrix, counted at once
    return np.bincount(t * classes + p, minlength=classes * classes).reshape(classes, classes)


def compute_report(confusion) -> MetricsReport:
    """Derive the full report from a confusion matrix.

    Classes with zero support are excluded from ua (with a warning);
    classes never predicted get precision 0 and are flagged.
    """
    counts = np.asarray(confusion, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ParameterError(f"compute_report: confusion must be square, got {counts.shape}")
    if (counts < 0).any():
        raise ParameterError("compute_report: negative counts")
    total = int(counts.sum())
    if total == 0:
        raise ParameterError("compute_report: empty confusion matrix")

    # the three margins as Python ints; every score below is a Python float
    support = counts.sum(axis=1).tolist()
    predicted = counts.sum(axis=0).tolist()
    diag = counts.diagonal().tolist()
    precision = [d / p if p > 0 else 0.0 for d, p in zip(diag, predicted)]
    recall = [d / s if s > 0 else 0.0 for d, s in zip(diag, support)]
    f1 = [2.0 * p * r / (p + r) if p + r > 0 else 0.0 for p, r in zip(precision, recall)]
    missing = [c for c, s in enumerate(support) if s == 0]
    if missing:
        warnings.warn(
            f"compute_report: classes {missing} have no true samples; excluded from ua",
            stacklevel=2,
        )
    weights = [s / total for s in support]
    weighted = (sum(w * x for w, x in zip(weights, xs)) for xs in (precision, recall, f1))
    return MetricsReport(
        confusion=counts,
        wa=sum(diag) / total,
        ua=float(np.mean([r for r, s in zip(recall, support) if s > 0])),
        per_class=[ClassScores(*scores) for scores in zip(precision, recall, f1, support)],
        weighted_avg=ClassScores(*weighted, total),
        empty_prediction_classes=[c for c, p in enumerate(predicted) if p == 0],
        missing_classes=missing,
    )


def report_from_labels(true_labels, predicted_labels, classes: int) -> MetricsReport:
    return compute_report(confusion_matrix(true_labels, predicted_labels, classes))


def confusion_to_csv(confusion) -> str:
    """CSV rendering with a header row of predicted-class columns."""
    counts = np.asarray(confusion, dtype=np.int64)
    classes = counts.shape[0]
    lines = ["true\\pred," + ",".join(str(c) for c in range(classes))]
    for i in range(classes):
        lines.append(str(i) + "," + ",".join(str(int(x)) for x in counts[i]))
    return "\n".join(lines) + "\n"
