from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit.metrics import (
    DegenerateLabelsError,
    apply_threshold,
    auc_score,
    roc_curve,
    threshold_at_quantile,
    threshold_at_tpr,
)


def mann_whitney_auc(scores, labels):
    """Brute-force pair-counting AUC, P(pos > neg) + half credit for ties, rounded once."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return float(Fraction(2 * greater + ties, 2 * pos.size * neg.size))


def full_vertices(scores, labels):
    """Every ROC vertex: the origin, then one per distinct score, descending.

    Returns the thresholds and the integer (tp, fp) counts of score >= threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1]])
    tp = np.array([int(np.sum(positive & (scores >= t))) for t in thresholds])
    fp = np.array([int(np.sum(~positive & (scores >= t))) for t in thresholds])
    return thresholds, tp, fp


def twice_area(tp, fp):
    return int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])))


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
        assert got == mann_whitney_auc(scores, labels)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.booleans()), min_size=2, max_size=60)
       .filter(lambda pairs: len({label for _, label in pairs}) == 2))
def test_auc_equals_mann_whitney_property(pairs):
    # Integer scores on a small range, so most draws are heavily tied.
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    labels = np.array([label for _, label in pairs], dtype=int)
    assert roc_curve(scores, labels).auc == mann_whitney_auc(scores, labels)


# A small pool of values, signed zeros included, so most draws are heavily tied.
TIED_VALUES = [-0.0, 0.0, -1e300, 1e300, 5e-324, -2.5, 1.0 / 3.0, 7.0, 1e-3]
TIED_SETS = (st.lists(st.tuples(st.sampled_from(TIED_VALUES), st.booleans()),
                      min_size=2, max_size=120)
             .filter(lambda pairs: len({label for _, label in pairs}) == 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TIED_SETS)
def test_roc_auc_and_auc_score_are_the_exact_fraction(pairs):
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    labels = np.array([label for _, label in pairs], dtype=int)
    exact = mann_whitney_auc(scores, labels)
    assert roc_curve(scores, labels).auc == auc_score(scores, labels) == exact


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(TIED_SETS, st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_auc_score_block_equals_its_row_calls(pairs, k, seed):
    # k rows against one label vector: each row's AUC is the 1-d call's, bit for bit
    labels = np.array([label for _, label in pairs], dtype=int)
    rows = np.random.default_rng(seed).choice(TIED_VALUES, size=(k, labels.size))
    aucs = auc_score(rows, labels)
    assert isinstance(aucs, np.ndarray) and aucs.shape == (k,)
    assert aucs.tolist() == [auc_score(row, labels) for row in rows]
    assert aucs.tolist() == [mann_whitney_auc(row, labels) for row in rows]


def test_auc_score_of_one_vector_is_a_float():
    assert type(auc_score(np.array([0.1, 0.9, 0.4]), np.array([0, 1, 0]))) is float


def check_corners(scores, labels):
    """roc_curve keeps, in order, exactly the full vertices that are corners."""
    thresholds, tp, fp = full_vertices(scores, labels)
    c = roc_curve(scores, labels)
    idx = np.searchsorted(-thresholds, -c.thresholds)
    assert np.all(np.diff(idx) > 0)
    assert np.array_equal(thresholds[idx], c.thresholds)
    assert idx[0] == 0 and idx[-1] == thresholds.size - 1
    assert np.array_equal(c.fpr, fp[idx] / fp[-1])
    assert np.array_equal(c.tpr, tp[idx] / tp[-1])
    ktp, kfp = tp[idx], fp[idx]
    dtp, dfp = np.diff(ktp), np.diff(kfp)
    assert np.all(dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:])  # no kept interior is collinear
    for a, b in zip(idx[:-1], idx[1:]):  # every dropped vertex lies on a kept segment
        for j in range(a + 1, b):
            assert (fp[j] - fp[a]) * (tp[b] - tp[a]) == (tp[j] - tp[a]) * (fp[b] - fp[a])
    assert twice_area(ktp, kfp) == twice_area(tp, fp)
    return idx.size, thresholds.size


def reference_roc_curve(scores, labels):
    """roc_curve by an argsort sweep over every distinct score, all counts n-length.

    Returns (fpr, tpr, thresholds, auc). Of a run of equal scores it reports
    whichever one argsort leaves last, so a run of zeros of both signs may
    give -0.0 or +0.0 as its threshold.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = (np.asarray(labels).ravel() > 0).astype(np.uint8)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores)
    s_sorted = scores[order]
    cut = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
    tp = np.concatenate([[0], np.cumsum(labels[order], dtype=np.int64)[cut]])
    fp = np.concatenate([[0], cut + 1]) - tp
    dtp, dfp = np.diff(tp), np.diff(fp)
    auc = int(np.sum(dfp * (tp[1:] + tp[:-1]))) / (2 * n_pos * n_neg)
    keep = np.ones(tp.size, dtype=bool)
    keep[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    thresholds = np.concatenate([[np.inf], s_sorted[cut]])[keep]
    return fp[keep] / n_neg, tp[keep] / n_pos, thresholds, auc


def check_reference_bytes(scores, labels):
    """roc_curve gives the reference's fpr, tpr and threshold bytes and its AUC.

    The scores' zeros are made +0.0 for the reference, so they have one sign."""
    fpr, tpr, thresholds, auc = reference_roc_curve(np.asarray(scores) + 0.0, labels)
    c = roc_curve(scores, labels)
    assert c.fpr.tobytes() == fpr.tobytes()
    assert c.tpr.tobytes() == tpr.tobytes()
    assert c.thresholds.tobytes() == thresholds.tobytes()
    assert c.auc == auc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TIED_SETS)
def test_roc_gives_the_reference_bytes_property(pairs):
    labels = np.array([label for _, label in pairs], dtype=int)
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    check_reference_bytes(scores, labels)
    f32_max = np.finfo(np.float32).max  # +-1e300 become it; 5e-324 becomes 0.0
    check_reference_bytes(np.clip(scores, -f32_max, f32_max).astype(np.float32), labels)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_roc_gives_the_reference_bytes_on_a_large_tied_vector(dtype):
    rng = np.random.default_rng(21)
    n = 200_000
    labels = (rng.random(n) < 0.01).astype(np.uint8)
    scores = np.round(rng.normal(size=n) + 2.0 * labels, 2).astype(dtype)  # ~800 values
    check_reference_bytes(scores, labels)


@pytest.mark.parametrize("scores, labels", [
    ([0.3, 0.1, 0.7, 0.1, 0.5], [0, 0, 1, 0, 0]),  # one positive
    ([0.3, 0.1, 0.7, 0.1, 0.5], [1, 1, 0, 1, 1]),  # one negative
    ([0.5, 0.2, 0.9], [1, 0, 0]),  # the positive below a negative and above another
    ([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1]),  # all scores tied
    ([-1.0, -1.0], [0, 1]),
])
def test_roc_gives_the_reference_bytes_on_edge_cases(scores, labels):
    for dtype in (np.float64, np.float32):
        check_reference_bytes(np.array(scores, dtype=dtype), np.array(labels))


def test_zero_threshold_does_not_depend_on_pixel_order():
    # The same (score, label) pairs in two orders. An argsort sweep reports whichever
    # zero of the tied run it leaves last, -0.0 for one of these orders.
    first = roc_curve(np.array([0.0, -0.0, 1.0]), np.array([1, 0, 0]))
    second = roc_curve(np.array([-0.0, 0.0, 1.0]), np.array([0, 1, 0]))
    for c in (first, second):
        assert c.thresholds.tolist() == [np.inf, 1.0, 0.0]
        assert not np.signbit(c.thresholds).any()
    assert first.thresholds.tobytes() == second.thresholds.tobytes()
    t = threshold_at_tpr(np.array([-0.0, 1.0]), np.array([1, 0]), 1.0)
    assert t == 0.0 and not np.signbit(t)
    for scores in ([0.0, -0.0, 1.0, -1.0], [-0.0, 0.0, 1.0, -1.0], [-0.0, -0.0, 1.0, -1.0]):
        t = threshold_at_quantile(np.array(scores), 0.5)
        assert t == 0.0 and not np.signbit(t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TIED_SETS)
def test_roc_keeps_only_corners_property(pairs):
    check_corners(np.array([score for score, _ in pairs], dtype=np.float64),
                  np.array([label for _, label in pairs], dtype=int))


@pytest.mark.parametrize("tie_frac", [0.0, 0.5])
def test_roc_keeps_only_corners(tie_frac):
    scores, labels = random_scored_set(8, n=400, tie_frac=tie_frac)
    kept, full = check_corners(scores, labels)
    assert kept < full


def test_roc_straight_runs_collapse():
    # In descending score order: two steps up, two right, one up, one right.
    # Only the vertices where the direction changes remain.
    scores = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0])
    labels = np.array([1, 1, 0, 0, 1, 0])
    c = roc_curve(scores, labels)
    assert list(c.thresholds) == [np.inf, 7.0, 5.0, 4.0, 3.0]
    assert list(c.tpr * 3) == [0.0, 2.0, 2.0, 3.0, 3.0]
    assert list(c.fpr * 3) == [0.0, 0.0, 2.0, 2.0, 3.0]
    assert c.auc == float(Fraction(7, 9))


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
    for scores in (np.arange(4.0), np.arange(12.0).reshape(3, 4)):  # one row or a block
        with pytest.raises(DegenerateLabelsError, match="degenerate"):
            auc_score(scores, np.zeros(4))
        with pytest.raises(DegenerateLabelsError, match="degenerate"):
            auc_score(scores, np.ones(4))
        with pytest.raises(ValueError, match="equal length"):
            auc_score(scores, np.array([0, 1, 0]))


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


def roc_threshold_at_tpr(scores, labels, rate):
    """The ROC-vertex rule: threshold of the first vertex whose tpr reaches rate.

    Taken over every vertex, not the corners roc_curve keeps: the answer may
    lie inside a vertical run. tpr uses roc_curve's division, tp / n_pos.
    """
    thresholds, tp, _ = full_vertices(scores, labels)
    return float(thresholds[np.nonzero(tp / tp[-1] >= rate)[0][0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.booleans()), min_size=2, max_size=60)
       .filter(lambda pairs: len({label for _, label in pairs}) == 2),
       st.one_of(st.sampled_from([1e-9, 0.25, 1 / 3, 0.5, 0.8, 1.0]),
                 st.floats(1e-6, 1.0)))
def test_threshold_at_tpr_equals_roc_vertex_rule(pairs, rate):
    scores = np.array([score for score, _ in pairs], dtype=np.float64) / 4
    labels = np.array([label for _, label in pairs], dtype=int)
    assert threshold_at_tpr(scores, labels, rate) == roc_threshold_at_tpr(scores, labels, rate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_scores(bad):
    scores = np.array([0.9, bad, 0.1, 0.5])
    labels = np.array([1, 1, 0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        roc_curve(scores, labels)
    with pytest.raises(ValueError, match="non-finite"):
        threshold_at_tpr(scores, labels, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        threshold_at_quantile(scores, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        auc_score(scores, labels)
    block = np.array([[0.9, 0.8, 0.1, 0.5], scores, [0.2, 0.3, 0.4, 0.6]])
    with pytest.raises(ValueError, match="non-finite"):
        auc_score(block, labels)
    with pytest.raises(ValueError, match="non-finite"):  # checked before the labels
        auc_score(block, np.zeros(4))


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


def test_float32_scores_give_the_thresholds_of_their_float64_copy():
    # float32 scores are sorted and selected as float32; every threshold, including
    # the one just above the maximum (k = 0), is the float64 copy's
    rng = np.random.default_rng(3)
    scores = rng.normal(size=301).astype(np.float32)
    labels = (rng.random(301) < 0.3).astype(int)
    wide = scores.astype(np.float64)
    for q in (1e-9, 0.1, 0.5, 0.99):
        assert threshold_at_quantile(scores, q) == threshold_at_quantile(wide, q)
    for rate in (0.1, 0.5, 1.0):
        assert threshold_at_tpr(scores, labels, rate) == threshold_at_tpr(wide, labels, rate)


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
