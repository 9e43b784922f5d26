"""ROC curves, AUC, threshold selection, binary maps.

Conventions, fixed across the whole package: anomalous is the positive
class, larger score means more anomalous, and a threshold t flags score
>= t. Tied scores are grouped into a single ROC vertex. True and false
positives are kept as integer counts, so the trapezoid area under the
vertices is the integer 2 #(pos > neg) + #(pos == neg) over
2 n_pos n_neg, and the AUC is that fraction rounded once: the
Mann-Whitney statistic with half credit for ties, exactly. `roc_curve`
keeps only the corners of the curve (vertices where its direction
changes), which leaves the polyline and its area unchanged; `auc_score`
counts the same integer without building the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateLabelsError",
    "RocCurve",
    "roc_curve",
    "auc_score",
    "threshold_at_tpr",
    "threshold_at_quantile",
    "apply_threshold",
]


class DegenerateLabelsError(ValueError):
    """Raised when labels contain only one class."""


@dataclass(frozen=True)
class RocCurve:
    """ROC corners from the (0, 0) origin to (1, 1), their thresholds, and the exact AUC.

    Vertex i flags the scores >= thresholds[i]; thresholds[0] is +inf.
    Vertices strictly inside a straight run are left out.
    """

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


def _exact_auc(twice_area: int, n_pos: int, n_neg: int) -> float:
    """The AUC from its integer numerator 2 #(pos > neg) + #ties, rounded once."""
    return int(twice_area) / (2 * n_pos * n_neg)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Sweep thresholds over the distinct scores, descending.

    The curve starts at (0, 0) with threshold +inf and ends at (1, 1) at
    the minimum score. Of the vertices in between, those whose two integer
    steps (dfp, dtp) are parallel lie strictly inside a straight run and
    are dropped. The AUC is the integer trapezoid sum over the counts.
    """
    scores, labels, n_pos, n_neg = _check_scored_labels(scores, labels)
    # Counts are read only where a run of equal scores ends, so the order
    # within a run does not matter and no stable sort is needed.
    order = np.argsort(-scores)
    s_sorted = scores[order]
    cut = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
    tp = np.concatenate([[0], np.cumsum(labels[order])[cut]])
    fp = np.concatenate([[0], cut + 1]) - tp
    dtp, dfp = np.diff(tp), np.diff(fp)
    auc = _exact_auc(np.sum(dfp * (tp[1:] + tp[:-1])), n_pos, n_neg)

    keep = np.ones(tp.size, dtype=bool)
    keep[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    thresholds = np.concatenate([[np.inf], s_sorted[cut]])[keep]
    return RocCurve(fpr=fp[keep] / n_neg, tpr=tp[keep] / n_pos, thresholds=thresholds, auc=auc)


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """The AUC of roc_curve, bit for bit, counted without building the curve.

    Each positive score adds the number of negatives below it plus the
    number at or below it to the integer numerator.
    """
    scores, labels, n_pos, n_neg = _check_scored_labels(scores, labels)
    positive = labels == 1
    neg = np.sort(scores[~positive])
    pos = scores[positive]
    twice_area = (np.searchsorted(neg, pos, "left").sum()
                  + np.searchsorted(neg, pos, "right").sum())
    return _exact_auc(twice_area, n_pos, n_neg)


def threshold_at_tpr(scores: np.ndarray, labels: np.ndarray, rate: float) -> float:
    """Largest threshold whose detection rate reaches `rate`.

    That is the threshold of the first ROC vertex, over all distinct
    scores, whose tpr reaches `rate`; roc_curve may leave that vertex out
    when it lies inside a vertical run.
    """
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
