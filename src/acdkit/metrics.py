"""ROC curves, AUC, threshold selection, binary maps.

Conventions, fixed across the whole package: anomalous is the positive
class, larger score means more anomalous, and a threshold t flags score
>= t. Tied scores are grouped into a single ROC vertex and the AUC is the
trapezoid rule over the vertices, which makes it equal to the
Mann-Whitney statistic with half credit for ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateLabelsError",
    "RocCurve",
    "roc_curve",
    "threshold_at_tpr",
    "threshold_at_quantile",
    "apply_threshold",
]


class DegenerateLabelsError(ValueError):
    """Raised when labels contain only one class."""


@dataclass(frozen=True)
class RocCurve:
    """ROC vertices (one per distinct score, plus the (0,0) origin) and AUC."""

    fpr: np.ndarray = field(repr=False)
    tpr: np.ndarray = field(repr=False)
    thresholds: np.ndarray = field(repr=False)
    auc: float

    def __post_init__(self):
        for name in ("fpr", "tpr", "thresholds"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _finite_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    return scores


def _check_scored_labels(scores: np.ndarray, labels: np.ndarray):
    scores = _finite_scores(scores)
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    labels = (labels > 0).astype(np.int64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("degenerate labels: need both classes")
    return scores, labels, n_pos, n_neg


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Sweep thresholds over the distinct scores, descending.

    The curve starts at (0, 0) with threshold +inf and ends at (1, 1) at
    the minimum score. AUC is the trapezoid rule over the vertices.
    """
    scores, labels, n_pos, n_neg = _check_scored_labels(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    l_sorted = labels[order]

    # indices where a run of equal scores ends
    last_of_run = np.nonzero(np.diff(s_sorted))[0]
    cut = np.concatenate([last_of_run, [s_sorted.size - 1]])

    tp = np.cumsum(l_sorted)[cut]
    fp = (cut + 1) - tp
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[np.inf], s_sorted[cut]])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


def threshold_at_tpr(scores: np.ndarray, labels: np.ndarray, rate: float) -> float:
    """Largest threshold whose detection rate reaches `rate`: the first such ROC vertex's."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    scores, labels, n_pos, _ = _check_scored_labels(scores, labels)
    # That vertex is the k-th largest positive score, for the least k with
    # k / n_pos >= rate, computed with the same division as roc_curve's tpr.
    k = int(np.argmax(np.arange(1, n_pos + 1) / n_pos >= rate))
    return float(np.sort(scores[labels == 1])[n_pos - 1 - k])


def threshold_at_quantile(scores: np.ndarray, q: float) -> float:
    """Threshold flagging roughly a fraction q of the scores.

    Uses the top-k rule with k = floor(q * n): for distinct scores the
    flagged fraction is within 1/n of q, q -> 0 flags nothing and q -> 1
    flags everything but the minimum.
    """
    scores = _finite_scores(scores)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    k = int(np.floor(q * scores.size))
    if k == 0:
        return float(np.nextafter(scores.max(), np.inf))
    return float(np.sort(scores)[scores.size - k])


def apply_threshold(scores: np.ndarray, t: float) -> np.ndarray:
    """Binary map: 1 where score >= t."""
    scores = np.asarray(scores, dtype=np.float64)
    return (scores >= t).astype(np.uint8)
