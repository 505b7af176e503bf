"""Classification metrics: confusion matrix, WA/UA, per-class P/R/F1.

Conventions: weighted accuracy (wa) is plain overall accuracy,
unweighted accuracy (ua) is the macro average of per-class recalls.
Weighted averages use true-class support as weights, which makes the
weighted-average recall identical to wa.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


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
        return {
            "wa": self.wa,
            "ua": self.ua,
            "per_class": [c.to_dict() for c in self.per_class],
            "weighted_avg": self.weighted_avg.to_dict(),
            "confusion": self.confusion.tolist(),
            "empty_prediction_classes": self.empty_prediction_classes,
            "missing_classes": self.missing_classes,
        }


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

    classes = counts.shape[0]
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    diag = np.diag(counts)

    wa = float(diag.sum() / total)

    per_class = []
    recalls = []
    missing = []
    empty_pred = []
    for c in range(classes):
        prec = float(diag[c] / predicted[c]) if predicted[c] > 0 else 0.0
        if predicted[c] == 0:
            empty_pred.append(c)
        if support[c] > 0:
            rec = float(diag[c] / support[c])
            recalls.append(rec)
        else:
            rec = 0.0
            missing.append(c)
        f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        per_class.append(ClassScores(prec, rec, f1, int(support[c])))

    if missing:
        warnings.warn(
            f"compute_report: classes {missing} have no true samples; excluded from ua",
            stacklevel=2,
        )
    ua = float(np.mean(recalls))

    weights = support / total
    weighted = ClassScores(
        precision=float(sum(w * c.precision for w, c in zip(weights, per_class))),
        recall=float(sum(w * c.recall for w, c in zip(weights, per_class))),
        f1=float(sum(w * c.f1 for w, c in zip(weights, per_class))),
        support=total,
    )

    return MetricsReport(
        confusion=counts,
        wa=wa,
        ua=ua,
        per_class=per_class,
        weighted_avg=weighted,
        empty_prediction_classes=empty_pred,
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
