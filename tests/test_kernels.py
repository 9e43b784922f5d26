import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import pdist

from acdkit.detectors import DetectorConfig, with_params
from acdkit.kernels import (
    _HEURISTIC_BLOCK,
    _HEURISTIC_MAX_EXACT,
    KernelSpec,
    _sam_cosines,
    cross_gram,
    gram,
    joint_kernel,
    sigma_heuristic,
)


def kernel_value(spec, a, b):
    """k(a, b) for one pair of vectors, through the batch evaluator."""
    return cross_gram(b[None], a[None], spec)[0, 0]


def sam_reference(a, b, sigma):
    """High-precision evaluation of the spectral-angle kernel."""
    mpmath.mp.dps = 50
    av = [mpmath.mpf(float(v)) for v in a]
    bv = [mpmath.mpf(float(v)) for v in b]
    dot = mpmath.fsum(x * y for x, y in zip(av, bv))
    na = mpmath.sqrt(mpmath.fsum(x * x for x in av))
    nb = mpmath.sqrt(mpmath.fsum(x * x for x in bv))
    cos = dot / (na * nb)
    cos = max(min(cos, mpmath.mpf(1)), mpmath.mpf(-1))
    angle = mpmath.acos(cos)
    return float(mpmath.e ** (-(angle**2) / (2 * mpmath.mpf(sigma) ** 2)))


def test_rbf_same_point_is_one():
    a = np.array([0.3, -1.2, 4.0])
    assert kernel_value(KernelSpec("rbf", 2.0), a, a) == 1.0


def test_sam_collinear_is_one():
    a = np.array([1.0, 2.0, -0.5])
    assert kernel_value(KernelSpec("sam", 0.7), a, 2 * a) == pytest.approx(1.0, abs=1e-12)


def test_rbf_hand_value():
    k = kernel_value(KernelSpec("rbf", 1.0), np.zeros(2), np.ones(2))
    assert k == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_sam_matches_high_precision_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        sigma = float(rng.uniform(0.2, 3.0))
        got = kernel_value(KernelSpec("sam", sigma), a, b)
        assert got == pytest.approx(sam_reference(a, b, sigma), abs=1e-12)


def test_sam_zero_vector_convention():
    sigma = 1.0
    zero = np.zeros(3)
    v = np.array([1.0, 0.0, 0.0])
    assert kernel_value(KernelSpec("sam", sigma), zero, zero) == 1.0
    expected = math.exp(-((math.pi / 2) ** 2) / (2 * sigma**2))
    assert kernel_value(KernelSpec("sam", sigma), zero, v) == pytest.approx(expected)


def test_gram_single_row():
    rows = np.array([[2.0, 1.0]])
    k = gram(rows, KernelSpec("linear"))
    assert k.shape == (1, 1)
    assert k[0, 0] == pytest.approx(5.0)


@pytest.mark.parametrize("kind", ["rbf", "sam"])
def test_gram_unit_diagonal_and_range(kind, rng):
    rows = rng.normal(size=(15, 4)) + 3.0
    k = gram(rows, KernelSpec(kind, 1.5))
    assert np.array_equal(np.diag(k), np.ones(15))
    off = k[~np.eye(15, dtype=bool)]
    assert np.all(off > 0) and np.all(off <= 1)


def test_linear_gram_matches_direct_product(rng):
    rows = rng.normal(size=(12, 3))
    k = gram(rows, KernelSpec("linear"))
    direct = np.array([[np.dot(a, b) for b in rows] for a in rows])
    assert np.allclose(k, direct, rtol=1e-12, atol=1e-12)


def test_cross_row_matches_gram(rng):
    rows = rng.normal(size=(10, 4))
    spec = KernelSpec("rbf", 2.0)
    k = gram(rows, spec)
    stacked = np.array([cross_gram(rows, v[None], spec)[0] for v in rows])
    assert np.allclose(stacked, k, rtol=1e-12, atol=1e-12)


def test_cross_row_training_row_is_one(rng):
    rows = rng.normal(size=(8, 3))
    out = cross_gram(rows, rows[4][None], KernelSpec("rbf", 1.0))[0]
    assert out[4] == pytest.approx(1.0, abs=1e-12)


def test_cross_row_linear_is_matvec(rng):
    rows = rng.normal(size=(9, 5))
    v = rng.normal(size=5)
    assert np.allclose(cross_gram(rows, v[None], KernelSpec("linear"))[0], rows @ v, rtol=1e-12)


def test_cross_gram_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        cross_gram(rng.normal(size=(5, 3)), rng.normal(size=(2, 4)), KernelSpec("linear"))


def allocating_kernel(a, b, spec):
    """The kernel expression as evaluated before it wrote into a caller's buffer."""
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "rbf":
        sq = (
            np.einsum("ij,ij->i", a, a)[:, None]
            + np.einsum("ij,ij->i", b, b)[None, :]
            - 2.0 * (a @ b.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.sigma**2))
    angles = np.arccos(_sam_cosines(a, b))
    return np.exp(-(angles**2) / (2.0 * spec.sigma**2))


@pytest.mark.parametrize("spec", [KernelSpec("rbf", 1.7), KernelSpec("linear"),
                                  KernelSpec("sam", 0.9)], ids=lambda s: s.kind)
@pytest.mark.parametrize("n, m, d", [(40, 7, 3), (300, 1024, 8), (500, 700, 16)])
def test_in_place_kernels_keep_the_allocating_bits(spec, n, m, d):
    # a Gram matrix's a @ a.T runs as a symmetric rank-k update, so gram keeps
    # its own product; both must give exactly the bits of the allocating form
    rng = np.random.default_rng(n + m + d)
    train, probes = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    expected = allocating_kernel(probes, train, spec).tobytes()
    out, work = np.full((2, m, n), np.nan)
    assert cross_gram(train, probes, spec, out=out, work=work) is out
    assert out.tobytes() == expected
    assert cross_gram(train, probes, spec).tobytes() == expected
    k = allocating_kernel(train, train, spec)
    k = (k + k.T) / 2.0
    if spec.kind != "linear":
        np.fill_diagonal(k, 1.0)
    assert gram(train, spec).tobytes() == k.tobytes()


@pytest.mark.parametrize("spec", [KernelSpec("rbf", 1.7), KernelSpec("linear"),
                                  KernelSpec("sam", 0.9)], ids=lambda s: s.kind)
@pytest.mark.parametrize("n, d", [(2, 3), (97, 5), (500, 8), (1000, 16)])
def test_gram_exactly_symmetric(spec, n, d):
    # as evaluated, with no symmetrizing pass: eigh reads one triangle of it
    rows = np.random.default_rng(n + d).normal(size=(n, d))
    k = gram(rows, spec)
    assert np.array_equal(k, k.T)


def test_joint_kernel_matches_kernel_on_stacked_rows(rng):
    x, y = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
    px, py = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    for spec in (KernelSpec("rbf", 1.3), KernelSpec("linear")):
        k_z = joint_kernel(cross_gram(x, px, spec), cross_gram(y, py, spec), spec)
        direct = cross_gram(np.hstack([x, y]), np.hstack([px, py]), spec)
        np.testing.assert_allclose(k_z, direct, rtol=1e-13, atol=1e-15)
    assert not KernelSpec("sam", 1.0).joint_splits
    with pytest.raises(ValueError, match="sam"):
        joint_kernel(np.ones((2, 2)), np.ones((2, 2)), KernelSpec("sam", 1.0))


@pytest.mark.parametrize("kind,sigma", [("linear", None), ("rbf", 1.0), ("sam", 0.8)])
def test_gram_numerically_psd(kind, sigma, rng):
    rows = rng.normal(size=(30, 4)) + 0.5
    k = gram(rows, KernelSpec(kind, sigma))
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-8 * 30


def test_sam_scale_invariance(rng):
    spec = KernelSpec("sam", 1.1)
    for _ in range(10):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert kernel_value(spec, a, b) == pytest.approx(
            kernel_value(spec, 2 * a, 3 * b), abs=1e-12
        )


def test_rbf_huge_sigma_all_ones(rng):
    rows = rng.normal(size=(10, 3))
    k = gram(rows, KernelSpec("rbf", 1e8))
    assert np.all(k > 1 - 1e-10)


def test_sigma_heuristic_two_rows():
    rows = np.array([[0.0], [2.0]])
    assert sigma_heuristic(rows) == 2.0


def test_sigma_heuristic_hand_case():
    rows = np.array([[0.0], [1.0], [3.0]])
    assert sigma_heuristic(rows) == pytest.approx(2.0)


def test_sigma_heuristic_subsample_close_to_exact():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(5000, 3))
    exact = pdist(rows).mean()
    approx = sigma_heuristic(rows)
    assert abs(approx - exact) / exact < 0.10


@pytest.mark.parametrize("n,d", [(2, 1), (3, 5), (57, 2), (400, 8), (1000, 16), (2000, 3)])
def test_sigma_heuristic_equals_pdist_mean_exactly(n, d):
    rng = np.random.default_rng(n + d)
    rows = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d) + rng.normal(size=d)
    if n > 2:
        rows[n // 2] = rows[0]  # a duplicate row: one zero distance
    assert sigma_heuristic(rows) == pdist(rows).mean()


def test_sigma_heuristic_zero_dispersion():
    with pytest.raises(ValueError, match="zero dispersion"):
        sigma_heuristic(np.ones((5, 2)))
    with pytest.raises(ValueError, match="zero dispersion"):
        sigma_heuristic(np.ones((_HEURISTIC_BLOCK + 3, 4)))  # more than one block of rows


def _per_pair_mean_distance(rows):
    """The mean over pairs i < j, in triu order, of each pair's distance summed column by
    column from zero."""
    dists = []
    for i in range(rows.shape[0]):
        for j in range(i + 1, rows.shape[0]):
            sq = 0.0
            for a, b in zip(rows[i], rows[j]):
                sq += (a - b) * (a - b)
            dists.append(math.sqrt(sq))
    return np.array(dists).mean()


@pytest.mark.parametrize("n", [2, 3, _HEURISTIC_BLOCK, _HEURISTIC_BLOCK + 1, 2 * _HEURISTIC_BLOCK + 7])
def test_sigma_heuristic_equals_a_per_pair_loop_bit_for_bit(n):
    # columns of very different scales, so that another order of the per-pair sums
    # would round differently; a few pairs, so that a one-ulp change shows in the mean
    for seed in range(40 if n <= 3 else 2):
        rng = np.random.default_rng([n, seed])
        rows = rng.normal(size=(n, 12)) * 10.0 ** rng.uniform(-3, 3, size=12)
        if n > 3:
            rows[n - 1] = rows[1]  # duplicate rows, so one distance is zero
            rows[n // 2] = rows[1]
        assert sigma_heuristic(rows) == _per_pair_mean_distance(rows)


def test_sigma_heuristic_holds_its_distances_and_one_block():
    # 2000 rows: the n(n-1)/2 float64 distances, and a few (block, n) float64 arrays of
    # squared differences; index arrays of the pairs would add 16 bytes a pair
    n = _HEURISTIC_MAX_EXACT
    rows = np.random.default_rng(4).normal(size=(n, 16))
    tracemalloc.start()
    try:
        sigma_heuristic(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * (n - 1) // 2 + 4 * 8 * _HEURISTIC_BLOCK * n + 2**19


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("nope", 1.0)
    KernelSpec("linear")  # no sigma


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_linear_kernel_spec_takes_no_sigma(sigma):
    # a.b has no lengthscale, so one spec stands for the linear kernel
    with pytest.raises(ValueError, match="the linear kernel takes no sigma"):
        KernelSpec("linear", sigma)
    config = DetectorConfig(mode="kernel", kernel=KernelSpec("linear"))
    with pytest.raises(ValueError, match="the linear kernel takes no sigma"):
        with_params(config, sigma=5.0)
