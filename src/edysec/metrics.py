"""Classification metrics: confusion counts, ratio metrics, rank-based ROC AUC,
and `evaluate`, the one path from probabilities to a report."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteScore, SingleClass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float
    error_rate: float
    auc: float | None = None

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            # 2-decimal display fields, percentage style for the error rates
            "display": {
                "fpr_pct": round(self.fpr * 100, 2),
                "fnr_pct": round(self.fnr * 100, 2),
                "f1": round(self.f1, 2),
                "accuracy": round(self.accuracy, 2),
                "auc": round(self.auc, 2) if self.auc is not None else None,
            },
        }


def confusion(labels, probabilities, threshold: float = 0.5) -> ConfusionMatrix:
    """Predict malicious iff p >= threshold (inclusive). Raises
    NonFiniteScore on NaN or +-inf, which `>=` would count as benign."""
    labels = np.asarray(labels)
    probabilities = np.asarray(probabilities, dtype=float)
    if len(labels) != len(probabilities) or len(labels) == 0:
        raise LengthMismatch("labels and probabilities must align and be nonempty")
    if not np.all(np.isfinite(probabilities)):
        raise NonFiniteScore("a probability is not finite")
    pred = probabilities >= threshold
    pos = labels == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def accuracy(labels, probabilities, threshold: float = 0.5) -> float:
    """The share of rows whose thresholded probability (see `confusion`)
    matches the label; raises NonFiniteScore on NaN or +-inf."""
    cm = confusion(labels, probabilities, threshold)
    return (cm.tp + cm.tn) / cm.total


def classification_metrics(cm: ConfusionMatrix, auc: float | None = None) -> MetricsReport:
    total = cm.total
    if total <= 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else 1.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else 1.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    fpr = cm.fp / (cm.fp + cm.tn) if (cm.fp + cm.tn) else 0.0
    fnr = cm.fn / (cm.fn + cm.tp) if (cm.fn + cm.tp) else 0.0
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        fpr=fpr,
        fnr=fnr,
        error_rate=1.0 - accuracy,
        auc=auc,
    )


def evaluate(labels, probabilities, threshold: float, auc: bool = False) -> tuple[MetricsReport, ConfusionMatrix]:
    """The metrics report and confusion matrix of `probabilities` against
    `labels` at `threshold` (see `confusion`); the report carries the ROC AUC
    only when `auc` is set."""
    cm = confusion(labels, probabilities, threshold)
    return classification_metrics(cm, auc=roc_auc(labels, probabilities) if auc else None), cm


def midranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of the ranks
    they span, so every rank is a whole number or a half.

    Raises NonFiniteScore on NaN or +-inf, which a sort would place silently.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteScore("ranks need finite scores")
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(labels, scores) -> float:
    """Mann-Whitney rank AUC; tied scores contribute one half. Raises
    NonFiniteScore on a NaN or infinite score."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if len(labels) != len(scores):
        raise LengthMismatch("labels and scores must align")
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both classes present")
    ranks = midranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
