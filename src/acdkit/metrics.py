"""ROC curves, AUC, threshold selection, binary maps.

Conventions, fixed across the whole package: anomalous is the positive
class, larger score means more anomalous, and a threshold t flags score
>= t. Tied scores are grouped into a single ROC vertex. True and false
positives are kept as integer counts, so the trapezoid area under the
vertices is the integer 2 #(pos > neg) + #(pos == neg) over
2 n_pos n_neg, and the AUC is that fraction rounded once: the
Mann-Whitney statistic with half credit for ties, exactly. `roc_curve`
and `auc_score` count that integer one way, `_auc`: each positive score
adds the number of sorted negatives below it plus the number at or
below it. `roc_curve` value-sorts each class once and counts the curve
at O(n_pos) candidate vertices, keeping only its corners (vertices where
its direction changes), which leaves the polyline and its area
unchanged; `auc_score` does not build the curve, and takes one score
vector or a (k, n) block of them against the same labels, which are then
checked once. Float32 scores stay float32 (each is exact in float64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .raster import _all_finite, _real

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
    """scores as an array of the same shape, float32 as given and anything else as float64,
    checked once for NaN and infinity."""
    scores = _real(scores)
    if not _all_finite(scores):
        raise ValueError("scores contain non-finite values")
    return scores


def _check_labels(labels: np.ndarray, n: int):
    """n labels as a boolean mask of the positives with its positive and negative counts;
    both classes must be present."""
    labels = np.asarray(labels).ravel()
    if labels.size != n:
        raise ValueError("scores and labels must have equal length")
    positive = labels > 0
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("degenerate labels: need both classes")
    return positive, n_pos, n_neg


def _check_scored_labels(scores: np.ndarray, labels: np.ndarray):
    scores = _finite_scores(scores).ravel()
    return (scores, *_check_labels(labels, scores.size))


def _sorted_class(scores: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The scores where members is true, sorted ascending, with -0.0 made +0.0."""
    values = scores[members]  # compress would first build an int64 array of positions
    values += 0.0  # -0.0 + 0.0 is +0.0
    values.sort()
    return values


def _auc(neg: np.ndarray, pos: np.ndarray) -> float:
    """The exact AUC of the positive scores against the sorted negative scores."""
    twice_area = int(neg.searchsorted(pos, "left").sum() + neg.searchsorted(pos, "right").sum())
    return twice_area / (2 * pos.size * neg.size)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """The ROC corners, from threshold +inf at (0, 0) down to the minimum score at (1, 1).

    Between two adjacent distinct positive scores lie only negatives, a
    horizontal run whose inner vertices are collinear. So the counts are
    taken, by searching the two sorted classes, only at each positive
    score, at the smallest negative above it (the end of a run) and at the
    minimum score. Of those vertices, the ones whose two integer steps
    (dfp, dtp) are parallel lie strictly inside a straight run and are
    dropped. A zero threshold is +0.0 whatever the pixel order.
    """
    scores, positive, n_pos, n_neg = _check_scored_labels(scores, labels)
    neg, pos = _sorted_class(scores, ~positive), _sorted_class(scores, positive)
    above = neg.searchsorted(pos, "right")
    cuts = np.sort(np.concatenate([pos, neg[above[above < n_neg]], neg[:1]]))[::-1]
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]  # np.unique would import numpy.ma
    tp = np.concatenate([[0], n_pos - pos.searchsorted(cuts, "left")])
    fp = np.concatenate([[0], n_neg - neg.searchsorted(cuts, "left")])
    dtp, dfp = np.diff(tp), np.diff(fp)
    keep = np.ones(tp.size, dtype=bool)
    keep[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    thresholds = np.concatenate([[np.inf], cuts])[keep]
    return RocCurve(fpr=fp[keep] / n_neg, tpr=tp[keep] / n_pos, thresholds=thresholds,
                    auc=_auc(neg, pos))


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """The AUC of roc_curve, bit for bit, counted without building the curve.

    A (k, n) block of scores, k rows against the same n labels, gives a
    float64 array of k AUCs, each equal to the call on its row: the labels
    are checked once, the block's finiteness once, and the negatives of
    every row are sorted in one call. Scores of any other shape are raveled
    and give one float.
    """
    scores = _finite_scores(scores)
    rows = scores if scores.ndim == 2 else scores.reshape(1, -1)
    positive = _check_labels(labels, rows.shape[1])[0]
    # compress keeps the gathered rows C-contiguous (rows[:, mask] would not), so each row
    # sorts and searches in place
    negs = rows.compress(~positive, axis=1)
    negs.sort(axis=1)
    aucs = [_auc(neg, pos) for neg, pos in zip(negs, rows.compress(positive, axis=1))]
    return np.array(aucs) if scores.ndim == 2 else aucs[0]


def threshold_at_tpr(scores: np.ndarray, labels: np.ndarray, rate: float) -> float:
    """Largest threshold whose detection rate reaches `rate`.

    That is the threshold of the first ROC vertex, over all distinct
    scores, whose tpr reaches `rate`; roc_curve may leave that vertex out
    when it lies inside a vertical run.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    scores, positive, n_pos, _ = _check_scored_labels(scores, labels)
    # That vertex is the k-th largest positive score, for the least k with
    # k / n_pos >= rate, computed with the same division as roc_curve's tpr.
    k = int(np.argmax(np.arange(1, n_pos + 1) / n_pos >= rate))
    return float(_sorted_class(scores, positive)[n_pos - 1 - k])


def threshold_at_quantile(scores: np.ndarray, q: float) -> float:
    """Threshold flagging roughly a fraction q of the scores.

    Uses the top-k rule with k = floor(q * n): for distinct scores the
    flagged fraction is within 1/n of q, q -> 0 flags nothing and q -> 1
    flags everything but the minimum.
    """
    scores = _finite_scores(scores).ravel()
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    k = int(np.floor(q * scores.size))
    if k == 0:
        return float(np.nextafter(float(scores.max()), np.inf))  # a float64 step for any dtype
    # the k-th largest score by selection; + 0.0 makes a -0.0 threshold +0.0
    return float(np.partition(scores, scores.size - k)[scores.size - k]) + 0.0


def apply_threshold(scores: np.ndarray, t: float) -> np.ndarray:
    """Binary map: 1 where score >= t, compared in float64 whatever the scores' dtype.

    t is made a numpy float64, which float32 scores promote to; a Python
    float would be cast to float32 and could flag scores just below t.
    """
    return (np.asarray(scores) >= np.float64(t)).view(np.uint8)
