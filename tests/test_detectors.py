from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.stats import rankdata

from acdkit.detectors import (
    DETECTOR_BETAS,
    DetectorConfig,
    FittedDetector,
    KernelTerm,
    LinearTerm,
    _fit_lambdas,
    _xi_rows,
    combine_xi,
    fit,
    score_pixels,
    with_params,
    standardized_training,
    xi_pixels,
)
from acdkit.kernels import KernelSpec, cross_gram, gram
from acdkit.linalg import covariance, spd_factorize
from acdkit.raster import BandStats, standardize_apply
from acdkit.tune import default_grid

from conftest import correlated_pair, raw_kernel_xi_path


def kernel_config(**kw):
    kw.setdefault("kernel", KernelSpec("rbf", 2.0))
    kw.setdefault("mode", "kernel")
    return DetectorConfig(**kw)


def xi_kernel_path(x_train, y_train, x, y, config, lams):
    """(len(lams), 3, m) xi of the probe pairs under the detectors of config at each
    lambda, built and scored as tune does: one eigendecomposition per Gram matrix."""
    return _xi_rows(_fit_lambdas(standardized_training(x_train, y_train), config, lams), x, y)


def linear_xi(c, mean, ridge, rows):
    """xi of rows under a linear term whitening covariance c with the given ridge.

    The term is the x term of a detector with identity band stats, so
    xi_pixels scores the rows as given.
    """
    def term(c, mean, ridge):
        eig = spd_factorize(c, ridge_scale=0.0)
        return LinearTerm(mean=mean, basis=eig.basis, values=eig.values, ridge=ridge)

    def identity(d):
        return BandStats(mean=np.zeros(d), std=np.ones(d))

    d = mean.size
    det = FittedDetector(config=DetectorConfig(), band_stats_x=identity(d),
                         band_stats_y=identity(1), term_x=term(c, mean, ridge),
                         term_y=term(np.eye(1), np.zeros(1), 0.0),
                         term_z=term(np.eye(d + 1), np.zeros(d + 1), 0.0))
    return xi_pixels(det, rows, np.zeros((rows.shape[0], 1)))[1]


def test_detector_beta_table():
    assert DETECTOR_BETAS == {"rx": (0, 0), "yx": (0, 1), "xy": (1, 0), "hacd": (1, 1)}


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(beta_x=2)
    with pytest.raises(ValueError):
        DetectorConfig(distribution="ec")  # nu missing
    with pytest.raises(ValueError):
        DetectorConfig(mode="kernel")  # kernel spec missing
    with pytest.raises(ValueError):
        kernel_config(lam=-1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 10**400])
def test_hyperparameters_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite sigma"):
        KernelSpec("rbf", bad)
    with pytest.raises(ValueError, match="finite nu"):
        DetectorConfig(distribution="ec", nu=bad)
    with pytest.raises(ValueError, match="lam must be finite"):
        kernel_config(lam=bad)


def test_detector_terms_must_match_config():
    x, y = correlated_pair(60, 2, seed=1)
    det = fit(x[:40], y[:40], kernel_config(lam=1e-3))
    with pytest.raises(ValueError, match="config mode 'linear' needs linear terms"):
        replace(det, config=DetectorConfig())
    with pytest.raises(ValueError, match="one training row count"):
        replace(det, term_x=fit(x[:30], y[:30], kernel_config(lam=1e-3)).term_x)
    with pytest.raises(ValueError, match="config mode 'kernel' needs kernel terms"):
        replace(fit(x, y, DetectorConfig()), config=kernel_config())
    with pytest.raises(ValueError, match="d_x \\+ d_y, d_x and d_y dims"):
        replace(det, term_z=det.term_x)


def test_detector_at_another_lambda_is_the_same_terms_under_another_config():
    # the config alone sets lambda: a refit at lambda' and the fitted terms under
    # a config with lambda' derive the same weights and score the same bits
    x, y = correlated_pair(60, 2, seed=1)
    det = fit(x[:40], y[:40], kernel_config(lam=1e-3))
    refit = fit(x[:40], y[:40], kernel_config(lam=0.5))
    moved = replace(det, config=kernel_config(lam=0.5))
    for a, b in zip(moved.weights, refit.weights):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(score_pixels(moved, x[40:], y[40:]),
                                  score_pixels(refit, x[40:], y[40:]))


@pytest.mark.parametrize("nu", [-3.0, 0.0, 4.0])
def test_gaussian_config_rejects_nu(nu):
    with pytest.raises(ValueError, match="nu applies to the ec distribution only"):
        DetectorConfig(distribution="gaussian", nu=nu)


@pytest.mark.parametrize("kw, message", [
    ({"kernel": KernelSpec("rbf", 1.0)}, "a kernel spec applies to kernel mode only"),
    ({"lam": 3.0}, "lam applies to kernel mode only"),
    ({"kernel": KernelSpec("rbf", 1.0), "lam": 3.0}, "a kernel spec applies to kernel mode only"),
])
def test_linear_config_rejects_kernel_and_lambda(kw, message):
    with pytest.raises(ValueError, match=message):
        DetectorConfig(mode="linear", **kw)


def test_terms_reject_malformed_whitening():
    x, y = correlated_pair(60, 2, seed=1)
    det = fit(x, y, DetectorConfig())
    singular = LinearTerm(mean=np.zeros(2), basis=np.eye(2), values=np.array([1.0, 0.0]),
                          ridge=0.0)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        replace(det, term_x=singular)
    with pytest.raises(ValueError, match="shapes"):
        KernelTerm(train=np.zeros((3, 2)), basis=np.eye(2), values=np.ones(2))


def test_fit_linear_dimensions():
    x, y = correlated_pair(100, 2, seed=0)
    det = fit(x, y, DetectorConfig(beta_x=0, beta_y=0))
    assert det.d_x == det.d_y == 2
    assert det.term_z.dim == 4
    assert det.term_x.dim == 2


def test_fit_kernel_dimensions():
    x, y = correlated_pair(50, 3, seed=1)
    det = fit(x, y, kernel_config())
    for term, weights in zip((det.term_z, det.term_x, det.term_y), det.weights):
        assert term.basis.shape == (50, 50)
        assert term.values.shape == weights.shape == (50,)
    assert det.term_z.dim == 6


def test_fit_rejects_unaligned():
    x, y = correlated_pair(30, 2, seed=2)
    with pytest.raises(ValueError, match="unaligned pair"):
        fit(x, y[:-1], DetectorConfig())


@pytest.mark.parametrize("config", [DetectorConfig(), kernel_config()], ids=["linear", "kernel"])
def test_fit_needs_two_rows(config):
    # the band statistics are the first thing fit on the training rows
    x, y = correlated_pair(30, 2, seed=2)
    with pytest.raises(ValueError, match="^need at least 2 rows to fit band statistics$"):
        fit(x[:1], y[:1], config)


def test_fit_recovers_known_covariance():
    # unit-variance bands with known correlations, so standardization is
    # close to the identity and the fitted z covariance approximates truth
    rho = 0.6
    true_c = np.array([[1.0, rho], [rho, 1.0]])
    L = np.linalg.cholesky(true_c)
    rng = np.random.default_rng(3)
    base = rng.normal(size=(5000, 2)) @ L.T
    x, y = base[:, :1], base[:, 1:]
    det = fit(x, y, DetectorConfig(beta_x=0, beta_y=0))
    term = det.term_z
    fitted = (term.basis * term.values) @ term.basis.T
    assert np.max(np.abs(fitted - true_c)) < 0.1


def test_linear_fit_on_constant_x_uses_machine_epsilon_floor():
    # every x band constant: standardized x rows and their covariance are all zero
    x, y = correlated_pair(100, 2, seed=30)
    x = np.full_like(x, 7.0)
    det = fit(x, y, DetectorConfig())
    assert det.term_x.ridge == np.finfo(np.float64).eps
    assert det.term_y.ridge == pytest.approx(1e-8)  # standardized bands: trace(C)/d ~ 1
    x_probe = x.copy()
    x_probe[::2] += 1.0
    scores = score_pixels(det, x_probe, y)
    assert np.all(np.isfinite(scores))


def test_xi_linear_cases():
    assert linear_xi(np.eye(2), np.zeros(2), 0.0, np.zeros((1, 2)))[0] == 0.0
    assert linear_xi(np.eye(2), np.zeros(2), 0.0, np.ones((1, 2)))[0] == pytest.approx(2.0)


def test_xi_linear_matches_explicit_inverse(rng):
    rows = rng.normal(size=(300, 3))
    mean = rows.mean(axis=0)
    c = covariance(rows, mean)
    v = rng.normal(size=3)
    expected = (v - mean) @ np.linalg.inv(c) @ (v - mean)
    assert linear_xi(c, mean, 0.0, v[None])[0] == pytest.approx(expected, rel=1e-9)


def test_xi_kernel_linear_reduction(rng):
    # uncentered full-rank data, linear kernel, negligible regularizer: each
    # term's dual form is v (V^T V)^-1 v over its training rows V, and z's,
    # whose kernel is k_x + k_y, over the stacked rows [X | Y]
    x, y = rng.normal(size=(200, 5)) + 1.0, rng.normal(size=(200, 2)) - 0.5
    px, py = rng.normal(size=(10, 5)), rng.normal(size=(10, 2))
    xi = raw_kernel_xi_path(x, y, px, py, KernelSpec("linear"), [1e-10])[0]
    for row, train, v in ((0, np.hstack([x, y]), np.hstack([px, py])), (1, x, px), (2, y, py)):
        expected = np.einsum("ij,jk,ik->i", v, np.linalg.inv(train.T @ train), v)
        np.testing.assert_allclose(xi[row], expected, rtol=1e-4)


def test_xi_kernel_training_row_bounded(rng):
    x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    det = fit(x, y, kernel_config(kernel=KernelSpec("rbf", 1.5), lam=1e-6))
    rows = [0, 7, 39]
    assert np.all(xi_pixels(det, x[rows], y[rows]) <= 1.0 + 1e-9)


def test_xi_kernel_nonnegative(rng):
    x, y = rng.normal(size=(60, 4)), rng.normal(size=(60, 2))
    det = fit(x, y, kernel_config(kernel=KernelSpec("rbf", 0.8), lam=1e-8))
    xi = xi_pixels(det, rng.normal(size=(100, 4)) * 3, rng.normal(size=(100, 2)) * 3)
    assert np.all(xi >= 0.0)


@pytest.mark.parametrize("distribution", ["gaussian", "ec"])
@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_family_scores_combine_the_three_terms(mode, distribution):
    # every family member computes the three xi that hacd computes, and
    # scores exactly the bytes that combine_xi makes of them
    x, y = correlated_pair(300, 3, seed=17)
    kw = {"distribution": distribution, "nu": 2.0 if distribution == "ec" else None,
          "mode": mode, "kernel": KernelSpec("rbf", 2.0) if mode == "kernel" else None}
    all_terms = xi_pixels(fit(x[:100], y[:100], DetectorConfig(**kw)), x, y)
    for name in ("rx", "xy", "yx"):
        beta_x, beta_y = DETECTOR_BETAS[name]
        cfg = DetectorConfig(beta_x=beta_x, beta_y=beta_y, **kw)
        det = fit(x[:100], y[:100], cfg)
        assert xi_pixels(det, x, y).tobytes() == all_terms.tobytes()
        expected = combine_xi(*all_terms, cfg, 3, 3)
        assert score_pixels(det, x, y).tobytes() == expected.tobytes()


def gaussian_scores(xi_z, xi_x, xi_y, beta_x, beta_y):
    return combine_xi(xi_z, xi_x, xi_y, DetectorConfig(beta_x=beta_x, beta_y=beta_y), 0, 0)


def ec_scores(xi_z, xi_x, xi_y, beta_x, beta_y, nu, d_x, d_y):
    config = DetectorConfig(beta_x=beta_x, beta_y=beta_y, distribution="ec", nu=nu)
    return combine_xi(xi_z, xi_x, xi_y, config, d_x, d_y)


def test_score_gaussian_cases():
    assert gaussian_scores(5.0, 2.0, 1.0, 0, 0) == 5.0
    assert gaussian_scores(5.0, 2.0, 1.0, 1, 1) == 2.0
    assert gaussian_scores(3.0, 7.0, 3.0, 0, 1) == 0.0


def test_score_ec_zero_case():
    assert ec_scores(0.0, 0.0, 0.0, 1, 1, nu=2.0, d_x=3, d_y=3) == 0.0


def test_score_ec_monotone_in_xi_z():
    xs = np.linspace(0, 50, 100)
    vals = ec_scores(xs, 0.0, 0.0, 0, 0, nu=1.0, d_x=4, d_y=4)
    assert np.all(np.diff(vals) > 0)


def test_score_ec_high_nu_approaches_gaussian():
    rng = np.random.default_rng(4)
    xi = rng.uniform(0, 20, size=(3, 50))
    g = gaussian_scores(xi[0], xi[1], xi[2], 1, 1)
    e = ec_scores(xi[0], xi[1], xi[2], 1, 1, nu=1e10, d_x=3, d_y=3)
    assert np.allclose(e, g, rtol=1e-4)


@pytest.mark.parametrize("nu", [5e-324, 1e-320, 1e-310, 1e-300, 1e300, 1.7976931348623157e308])
@pytest.mark.parametrize("betas", [(0, 0), (1, 1)])
def test_score_ec_finite_at_extreme_nu(nu, betas):
    # at the small end xi / nu overflows float64; the score must not
    xi = np.array([[0.0, 1e-3, 2.5, 3e8, 1e12], [0.0, 2e-3, 1.0, 1e3, 5e11],
                   [0.0, 1e-3, 0.5, 2e8, 1e6]])
    got = ec_scores(*xi, *betas, nu=nu, d_x=3, d_y=2)
    assert np.all(np.isfinite(got))
    with mpmath.workdps(50):
        nu_mp = mpmath.mpf(nu)
        for j in range(xi.shape[1]):
            z, x, y = ((d + nu_mp) * mpmath.log1p(mpmath.mpf(float(v)) / nu_mp)
                       for d, v in zip((5, 3, 2), xi[:, j]))
            assert got[j] == pytest.approx(float(z - betas[0] * x - betas[1] * y), rel=1e-12)


@pytest.mark.parametrize("betas", [(0, 0), (1, 0), (1, 1)])
def test_combine_xi_nu_column_equals_the_scalar_calls(betas):
    # the first row overflows xi / nu and takes the log fallback; the others do not
    xi = np.array([[0.0, 1e-3, 2.5, 3e8, 1e12], [0.0, 2e-3, 1.0, 1e3, 5e11],
                   [0.0, 1e-3, 0.5, 2e8, 1e6]])
    nu = np.array([[5e-324], [1e-3], [1.0], [1e10]])
    config = DetectorConfig(beta_x=betas[0], beta_y=betas[1], distribution="ec", nu=7.0)
    block = combine_xi(*xi, config, 3, 2, nu=nu)
    assert block.shape == (4, 5)
    for row, v in zip(block, nu[:, 0]):
        assert row.tobytes() == ec_scores(*xi, *betas, nu=v, d_x=3, d_y=2).tobytes()
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.log1p(xi[0] / nu[0])))  # row 0 needs the fallback
    # no pixels: an empty row, in either form
    assert combine_xi(*np.empty((3, 0)), config, 3, 2).shape == (0,)
    assert combine_xi(*np.empty((3, 0)), config, 3, 2, nu=nu).shape == (4, 0)


def test_combine_xi_nu_column_is_for_ec_only():
    with pytest.raises(ValueError, match="nu applies to the ec distribution only"):
        combine_xi(*np.ones((3, 4)), DetectorConfig(), 3, 3, nu=np.array([[1.0], [2.0]]))


def test_score_ec_rejects_bad_nu():
    # nu is checked once, where the config is built
    with pytest.raises(ValueError):
        DetectorConfig(beta_x=0, beta_y=0, distribution="ec", nu=0.0)


@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_rx_rank_equivalence(mode):
    x, y = correlated_pair(400, 3, seed=5)
    kw = {"mode": mode}
    if mode == "kernel":
        kw["kernel"] = KernelSpec("rbf", 3.0)
    det_g = fit(x[:200], y[:200], DetectorConfig(beta_x=0, beta_y=0, **kw))
    s_g = score_pixels(det_g, x[200:], y[200:])
    for nu in (0.1, 1.0, 100.0):
        cfg = DetectorConfig(beta_x=0, beta_y=0, distribution="ec", nu=nu, **kw)
        det_e = fit(x[:200], y[:200], cfg)
        s_e = score_pixels(det_e, x[200:], y[200:])
        assert np.array_equal(rankdata(s_g), rankdata(s_e))


@pytest.mark.parametrize("name", sorted(DETECTOR_BETAS))
def test_high_nu_limit_rank_agreement(name):
    from scipy.stats import spearmanr

    bx, by = DETECTOR_BETAS[name]
    x, y = correlated_pair(600, 3, seed=6)
    det_g = fit(x[:300], y[:300], DetectorConfig(beta_x=bx, beta_y=by))
    det_e = fit(x[:300], y[:300],
                DetectorConfig(beta_x=bx, beta_y=by, distribution="ec", nu=1e10))
    s_g = score_pixels(det_g, x[300:], y[300:])
    s_e = score_pixels(det_e, x[300:], y[300:])
    assert spearmanr(s_g, s_e).statistic >= 1 - 1e-9


def test_score_pixels_chi_square_expectation():
    x, y = correlated_pair(4000, 3, seed=7)
    det = fit(x[:2000], y[:2000], DetectorConfig(beta_x=0, beta_y=0))
    mean_score = score_pixels(det, x[2000:], y[2000:]).mean()
    assert abs(mean_score - 6.0) / 6.0 < 0.15


def test_score_pixels_permutation_equivariance():
    x, y = correlated_pair(200, 2, seed=10)
    det = fit(x[:100], y[:100], DetectorConfig())
    scores = score_pixels(det, x, y)
    perm = np.random.default_rng(11).permutation(200)
    assert np.array_equal(score_pixels(det, x[perm], y[perm]), scores[perm])


def test_score_pixels_band_count_mismatch():
    x, y = correlated_pair(50, 2, seed=12)
    det = fit(x, y, DetectorConfig())
    with pytest.raises(ValueError, match="band-count"):
        score_pixels(det, np.zeros((5, 3)), np.zeros((5, 2)))


def test_joint_scaling_rank_invariance():
    x, y = correlated_pair(500, 3, seed=13)
    det_a = fit(x, y, DetectorConfig(beta_x=1, beta_y=1))
    det_b = fit(100.0 * x, 100.0 * y, DetectorConfig(beta_x=1, beta_y=1))
    s_a = score_pixels(det_a, x, y)
    s_b = score_pixels(det_b, 100.0 * x, 100.0 * y)
    assert np.array_equal(np.argsort(s_a), np.argsort(s_b))


def test_unequal_band_counts():
    x, y = correlated_pair(300, 2, d_y=5, seed=14)
    cfg = DetectorConfig(beta_x=1, beta_y=1, distribution="ec", nu=3.0)
    det = fit(x, y, cfg)
    assert det.term_z.dim == 7
    scores = score_pixels(det, x[:50], y[:50])
    assert scores.shape == (50,)
    assert np.all(np.isfinite(scores))


def test_auto_lambda_resolution():
    x, y = correlated_pair(50, 2, seed=15)
    det = fit(x, y, kernel_config(lam=None))
    expected = 1.0 / (det.term_x.values * det.term_x.values + 1e-5 / 50)
    np.testing.assert_array_equal(det.weights[1], expected)


def test_with_params():
    cfg = kernel_config(distribution="ec", nu=1.0)
    out = with_params(cfg, nu=5.0, sigma=0.7, lam=2e-3)
    assert out.nu == 5.0
    assert out.kernel.sigma == 0.7
    assert out.lam == 2e-3
    with pytest.raises(ValueError):
        with_params(DetectorConfig(), sigma=1.0)


def test_xi_pixels_nonnegative():
    x, y = correlated_pair(300, 3, seed=16)
    for cfg in (DetectorConfig(), kernel_config()):
        det = fit(x[:150], y[:150], cfg)
        for part in xi_pixels(det, x[150:], y[150:]):
            assert np.all(part >= 0)


@pytest.mark.parametrize("spec", [KernelSpec("rbf", 1.5), KernelSpec("sam", 1.5),
                                  KernelSpec("linear")], ids=lambda s: s.kind)
def test_xi_kernel_path_matches_cholesky_fit(spec):
    # fit and the path share one eigendecomposition, weights and quadratic
    # form, so they agree bit for bit at every lambda of the default grid.
    x, y = correlated_pair(280, 3, seed=21)
    x_tr, y_tr, x_pr, y_pr = x[:80], y[:80], x[80:], y[80:]
    lams = default_grid(kernel_config(), heuristic_sigma=1.0).lambda_grid
    path = xi_kernel_path(x_tr, y_tr, x_pr, y_pr, kernel_config(kernel=spec), lams)
    for i, lam in enumerate(lams):
        det = fit(x_tr, y_tr, kernel_config(kernel=spec, lam=lam))
        expected = xi_pixels(det, x_pr, y_pr)
        for name, row in (("z", 0), ("x", 1), ("y", 2)):
            np.testing.assert_array_equal(path[i, row], expected[row], err_msg=name)


def cholesky_xi(train, probes, spec, lam):
    """k_v (K K + lambda I)^-1 k_v^T by Cholesky of K K + lambda I, as fit computed it
    before the eigen form: the accuracy baseline the eigen form has to beat."""
    k = gram(train, spec)
    m = k @ k
    m = (m + m.T) / 2.0
    m[np.diag_indices_from(m)] += lam
    w = solve_triangular(np.linalg.cholesky(m), cross_gram(train, probes, spec).T, lower=True)
    return np.einsum("ij,ij->j", w, w)


def rbf_xi_reference(train, probes, sigma, lams, dps=50):
    """(len(lams), m) k_v (K K + lambda I)^-1 k_v^T at dps digits from the same float64 rows,
    with the rbf kernel evaluated on the rows as given."""
    def k(a, b):
        sq = mpmath.fsum((mpmath.mpf(float(p)) - mpmath.mpf(float(q))) ** 2
                         for p, q in zip(a, b))
        return mpmath.exp(-sq / (2 * mpmath.mpf(sigma) ** 2))

    with mpmath.workdps(dps):
        gram_mp = mpmath.matrix([[k(a, b) for b in train] for a in train])
        gram_sq = gram_mp * gram_mp
        k_rows = [mpmath.matrix([k(v, b) for b in train]) for v in probes]
        refs = []
        for lam in lams:
            system = gram_sq + mpmath.mpf(lam) * mpmath.eye(len(train))
            refs.append([float((kv.T * mpmath.lu_solve(system, kv))[0]) for kv in k_rows])
    return np.array(refs)


def rbf_path_and_standardized_rows(sigma, lams):
    """xi_kernel_path of an rbf HACD fit on 40 of 44 random rows, and the standardized
    (z, x) training and probe rows its terms see."""
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(44, 3)), rng.normal(size=(44, 2))
    config = kernel_config(kernel=KernelSpec("rbf", sigma))
    path = xi_kernel_path(x[:40], y[:40], x[40:], y[40:], config, lams)
    stats_x, stats_y, xs, _, zs = standardized_training(x[:40], y[:40])
    pxs = standardize_apply(x[40:], stats_x)
    zps = np.hstack([pxs, standardize_apply(y[40:], stats_y)])
    return path, {"z": (zs, zps), "x": (xs, pxs)}


def test_xi_kernel_path_matches_high_precision_reference():
    # 50-digit k_v (K K + lambda I)^-1 k_v^T of the x term from the same float64 rows.
    sigma, lams = 1.5, [1e-10, 1e-6]
    path, rows = rbf_path_and_standardized_rows(sigma, lams)
    train, probes = rows["x"]
    refs = rbf_xi_reference(train, probes, sigma, lams)
    for i, (lam, ref) in enumerate(zip(lams, refs)):
        path_err = np.max(np.abs(path[i, 1] / ref - 1))
        assert path_err <= 1e-8
        if lam == 1e-10:
            chol = cholesky_xi(train, probes, KernelSpec("rbf", sigma), lam)
            assert path_err < np.max(np.abs(chol / ref - 1))


def test_product_form_z_term_matches_high_precision_reference():
    # The z term builds k_z = k_x * k_y, in K_z and in the probe kernel; the
    # 50-digit reference evaluates exp(-|z - z'|^2 / (2 sigma^2)) on the stacked rows.
    sigma, lams = 1.5, [1e-10, 1e-6]
    path, rows = rbf_path_and_standardized_rows(sigma, lams)
    refs = rbf_xi_reference(*rows["z"], sigma, lams)
    for i, ref in enumerate(refs):
        assert np.max(np.abs(path[i, 0] / ref - 1)) <= 1e-8


@pytest.mark.parametrize("ridge", [1e-10, 1e-6, 1.0])
def test_xi_terms_match_high_precision_reference(ridge):
    # 60-digit references from the same float64 inputs: (v - m)^T (C + eps I)^-1 (v - m)
    # for a linear term and k_v (K K + lambda I)^-1 k_v^T for a kernel term. A
    # backward-stable linear solve is good to ~cond(C + eps I) roundings; the kernel
    # form never builds K K + lambda I, whose condition number tops 1e12 at lambda 1e-10.
    rng = np.random.default_rng(61)
    rows = rng.normal(size=(44, 3))
    rows[:, 2] = rows[:, 0] + 1e-4 * rows[:, 2]  # near-collinear band: eps matters
    train, probes = rows[:40], rows[40:]
    mean = train.mean(axis=0)
    c = covariance(train, mean)
    sigma = 1.5
    # the kernel term is the x term of a fit on (rows, y), over standardized rows
    y = rng.normal(size=(44, 2))
    kernel = xi_kernel_path(train, y[:40], probes, y[40:],
                            kernel_config(kernel=KernelSpec("rbf", sigma)), [ridge])[0, 1]
    stats_x, _, k_train, _, _ = standardized_training(train, y[:40])
    k_probes = standardize_apply(probes, stats_x)

    with mpmath.workdps(60):
        eye = mpmath.eye(3)
        c_mp = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in c]) + \
            mpmath.mpf(ridge) * eye
        linear_ref = []
        for v in probes:
            dv = mpmath.matrix([mpmath.mpf(float(a)) - mpmath.mpf(float(b))
                                for a, b in zip(v, mean)])
            linear_ref.append(float((dv.T * mpmath.lu_solve(c_mp, dv))[0]))
    kernel_ref = rbf_xi_reference(k_train, k_probes, sigma, [ridge], dps=60)[0]

    linear = linear_xi(c, mean, ridge, probes)
    cond = np.linalg.cond(c + ridge * np.eye(3))
    assert np.max(np.abs(linear / np.array(linear_ref) - 1)) <= 16 * cond * np.finfo(float).eps
    assert np.max(np.abs(kernel / np.array(kernel_ref) - 1)) <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["rbf", "sam", "linear"]),
    sigma=st.floats(0.1, 10.0),
    lams=st.lists(st.floats(1e-10, 1e3), min_size=1, max_size=6).map(sorted),
)
def test_xi_kernel_path_nonnegative_and_nonincreasing(data, kind, sigma, lams):
    # Values on a 0.2 grid: exact ties and zero rows occur, underflow does not.
    d_x, d_y = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    def rows(n, d):
        return arrays(np.float64, (n, d), elements=st.integers(-50, 50).map(lambda v: v / 5))
    n_train, n_probe = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
    x_train, y_train = data.draw(rows(n_train, d_x)), data.draw(rows(n_train, d_y))
    x, y = data.draw(rows(n_probe, d_x)), data.draw(rows(n_probe, d_y))
    spec = KernelSpec(kind, None if kind == "linear" else sigma)
    # the rows as given (one training row is allowed there), and standardized
    paths = [raw_kernel_xi_path(x_train, y_train, x, y, spec, lams)]
    if n_train >= 2:
        paths.append(xi_kernel_path(x_train, y_train, x, y, kernel_config(kernel=spec), lams))
    # Each xi is a sum of n nonnegative terms whose weights fall as lambda
    # grows; summation order may differ between lambdas, so allow n roundings.
    slack = 1 + n_train * np.finfo(np.float64).eps
    for xi in paths:
        assert xi.shape == (len(lams), 3, n_probe)
        assert np.all(xi >= 0)
        assert np.all(xi[1:] <= xi[:-1] * slack)
