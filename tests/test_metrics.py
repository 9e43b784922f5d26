import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit.metrics import (
    DegenerateLabelsError,
    apply_threshold,
    roc_curve,
    threshold_at_quantile,
    threshold_at_tpr,
)


def mann_whitney_auc(scores, labels):
    """Brute-force pair-counting AUC: P(pos > neg) + half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (pos.size * neg.size)


def random_scored_set(seed, n=300, tie_frac=0.0):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if tie_frac > 0:
        k = int(tie_frac * n)
        scores[:k] = np.round(scores[:k])  # force heavy ties
    labels = (rng.random(n) < 0.4).astype(int)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    return scores, labels


def test_perfect_separation_auc_one():
    scores = np.array([5.0, 4.0, 3.0, 1.0, 0.5])
    labels = np.array([1, 1, 1, 0, 0])
    assert roc_curve(scores, labels).auc == 1.0


def test_random_labels_auc_near_half():
    rng = np.random.default_rng(77)
    scores = rng.permutation(np.linspace(0, 1, 1000))
    labels = (rng.random(1000) < 0.5).astype(int)
    assert abs(roc_curve(scores, labels).auc - 0.5) < 0.05


@pytest.mark.parametrize("tie_frac", [0.0, 0.25, 0.5])
def test_trapezoid_equals_mann_whitney(tie_frac):
    for seed in range(10):
        scores, labels = random_scored_set(seed, tie_frac=tie_frac)
        got = roc_curve(scores, labels).auc
        assert got == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.booleans()), min_size=2, max_size=60)
       .filter(lambda pairs: len({label for _, label in pairs}) == 2))
def test_auc_equals_mann_whitney_property(pairs):
    # Integer scores on a small range, so most draws are heavily tied.
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    labels = np.array([label for _, label in pairs], dtype=int)
    assert roc_curve(scores, labels).auc == pytest.approx(
        mann_whitney_auc(scores, labels), abs=1e-12)


def test_curve_endpoints_and_monotonicity():
    scores, labels = random_scored_set(3, tie_frac=0.3)
    c = roc_curve(scores, labels)
    assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
    assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)
    assert np.all(np.diff(c.fpr) >= 0)
    assert np.all(np.diff(c.tpr) >= 0)
    assert c.thresholds[0] == np.inf
    assert np.all(np.diff(c.thresholds) < 0)


def test_auc_invariant_under_increasing_transforms():
    scores, labels = random_scored_set(5, tie_frac=0.2)
    base = roc_curve(scores, labels).auc
    assert roc_curve(np.exp(scores), labels).auc == pytest.approx(base, abs=1e-12)
    assert roc_curve(3.0 * scores + 11.0, labels).auc == pytest.approx(base, abs=1e-12)


def test_auc_sign_reversal():
    scores, labels = random_scored_set(6)
    a = roc_curve(scores, labels).auc
    b = roc_curve(-scores, labels).auc
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_degenerate_labels_rejected():
    with pytest.raises(DegenerateLabelsError, match="degenerate"):
        roc_curve(np.arange(4.0), np.zeros(4))
    with pytest.raises(DegenerateLabelsError):
        roc_curve(np.arange(4.0), np.ones(4))


def test_threshold_at_tpr_full_rate():
    scores = np.array([9.0, 7.0, 3.0, 2.0])
    labels = np.array([1, 0, 1, 0])
    t = threshold_at_tpr(scores, labels, 1.0)
    assert t <= 3.0  # at or below the minimum positive score


def test_threshold_at_tpr_hand_case():
    scores = np.array([5.0, 1.0, 0.0])
    labels = np.array([1, 1, 0])
    assert threshold_at_tpr(scores, labels, 0.5) == 5.0


def test_threshold_at_tpr_minimal_achieving():
    rng = np.random.default_rng(31)
    scores = rng.normal(size=120)
    labels = (rng.random(120) < 0.3).astype(int)
    labels[0] = 1
    labels[1] = 0
    for rate in (0.25, 0.5, 0.82, 1.0):
        t = threshold_at_tpr(scores, labels, rate)
        flagged = apply_threshold(scores, t)
        tpr = flagged[labels == 1].mean()
        assert tpr >= rate
        # exhaustive sweep: no larger candidate threshold also achieves rate
        for cand in np.unique(scores):
            if cand > t:
                cand_tpr = apply_threshold(scores, cand)[labels == 1].mean()
                assert cand_tpr < rate


def test_threshold_at_quantile_median():
    t = threshold_at_quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert apply_threshold(np.array([1.0, 2.0, 3.0, 4.0]), t).sum() == 2


def test_threshold_at_quantile_boundaries():
    scores = np.array([0.0, 1.0, 2.0, 5.0])
    t_low = threshold_at_quantile(scores, 1e-9)
    assert apply_threshold(scores, t_low).sum() == 0
    t_high = threshold_at_quantile(scores, 1 - 1e-9)
    assert apply_threshold(scores, t_high).sum() == 3  # all but the minimum


def test_threshold_at_quantile_counting():
    rng = np.random.default_rng(13)
    scores = rng.permutation(np.linspace(-4, 9, 500))  # distinct
    for q in (0.1, 0.33, 0.5, 0.9):
        t = threshold_at_quantile(scores, q)
        frac = apply_threshold(scores, t).mean()
        assert abs(frac - q) <= 1.0 / 500


def test_apply_threshold_boundaries():
    scores = np.array([1.0, -2.0, 0.0])
    assert np.array_equal(apply_threshold(scores, -np.inf), [1, 1, 1])
    assert np.array_equal(apply_threshold(scores, 2.0), [0, 0, 0])


def test_apply_threshold_consistent_with_roc_vertices():
    scores, labels = random_scored_set(44, tie_frac=0.4)
    c = roc_curve(scores, labels)
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    for f, t, thr in zip(c.fpr, c.tpr, c.thresholds):
        flagged = apply_threshold(scores, thr)
        tp = int(flagged[labels == 1].sum())
        fp = int(flagged[labels == 0].sum())
        assert fp / n_neg == pytest.approx(f, abs=1e-12)
        assert tp / n_pos == pytest.approx(t, abs=1e-12)
