import numpy as np
import pytest

from acdkit.linalg import (
    SingularCovarianceError,
    SpdFactor,
    covariance,
    mahalanobis_batch,
    spd_factorize,
)


def random_spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def test_covariance_hand_case():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    c = covariance(rows, np.zeros(2))
    assert np.array_equal(c, [[1.0, 0.0], [0.0, 0.0]])


def test_covariance_exactly_symmetric():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(40, 6))
    c = covariance(m, m.mean(axis=0))
    assert np.array_equal(c, c.T)


def test_covariance_sampling_oracle():
    true_c = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 1.5]])
    L = np.linalg.cholesky(true_c)
    rng = np.random.default_rng(33)
    m = rng.normal(size=(5000, 3)) @ L.T
    c = covariance(m, m.mean(axis=0))
    assert np.max(np.abs(c - true_c)) < 0.1


def test_covariance_requires_two_rows():
    with pytest.raises(ValueError):
        covariance(np.ones((1, 2)), np.zeros(2))


def test_spd_factorize_identity_no_ridge():
    f = spd_factorize(np.eye(3), ridge_scale=0.0)
    assert np.array_equal(f.L, np.eye(3))
    assert f.ridge == 0.0


def test_spd_factorize_rank_deficient_with_ridge():
    f = spd_factorize(np.array([[1.0, 1.0], [1.0, 1.0]]), ridge_scale=1e-8)
    assert f.dim == 2
    assert np.all(np.diag(f.L) > 0)


def test_spd_factorize_reconstruction():
    for seed in range(5):
        c = random_spd(6, seed)
        f = spd_factorize(c, ridge_scale=1e-8)
        target = c + f.ridge * np.eye(6)
        rel = np.abs(f.L @ f.L.T - target) / (np.abs(target) + 1e-300)
        assert np.max(rel[target != 0]) < 1e-10


def test_spd_factorize_gives_up_on_hopeless_input():
    with pytest.raises(SingularCovarianceError, match="singular covariance"):
        spd_factorize(-np.eye(3), ridge_scale=0.0)


def test_mahalanobis_zero_at_mean():
    f = spd_factorize(random_spd(4, 1))
    mean = np.array([1.0, -2.0, 0.5, 3.0])
    assert mahalanobis_batch(f, mean, mean[None])[0] == 0.0


def test_mahalanobis_identity_factor():
    f = spd_factorize(np.eye(2), ridge_scale=0.0)
    assert mahalanobis_batch(f, np.zeros(2), np.array([[3.0, 4.0]]))[0] == pytest.approx(25.0)


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(8)
    for seed in range(5):
        c = random_spd(5, seed + 100)
        f = spd_factorize(c, ridge_scale=0.0)
        mean = rng.normal(size=5)
        v = rng.normal(size=5)
        xi = mahalanobis_batch(f, mean, v[None])[0]
        expected = (v - mean) @ np.linalg.inv(c) @ (v - mean)
        assert xi == pytest.approx(expected, rel=1e-9)


def test_mahalanobis_dimension_mismatch():
    f = spd_factorize(np.eye(3))
    with pytest.raises(ValueError):
        mahalanobis_batch(f, np.zeros(3), np.zeros((1, 4)))


def test_mahalanobis_batch_matches_single():
    rng = np.random.default_rng(12)
    c = random_spd(4, 55)
    f = spd_factorize(c)
    mean = rng.normal(size=4)
    rows = rng.normal(size=(30, 4))
    batch = mahalanobis_batch(f, mean, rows)
    singles = [mahalanobis_batch(f, mean, r[None])[0] for r in rows]
    assert np.allclose(batch, singles, rtol=1e-12)
    assert np.all(batch >= 0)


def test_mahalanobis_scale_invariance():
    rng = np.random.default_rng(40)
    rows = rng.normal(size=(200, 3)) @ random_spd(3, 9)
    v = rng.normal(size=3)
    for c_scale in (0.01, 3.0, 1e4):
        base_mean = rows.mean(axis=0)
        base_f = spd_factorize(covariance(rows, base_mean), 0.0)
        base = mahalanobis_batch(base_f, base_mean, v[None])[0]
        scaled_rows = c_scale * rows
        scaled_mean = scaled_rows.mean(axis=0)
        scaled = mahalanobis_batch(
            spd_factorize(covariance(scaled_rows, scaled_mean), 0.0),
            scaled_mean,
            c_scale * v[None],
        )[0]
        assert scaled == pytest.approx(base, rel=1e-9)


def test_spd_factor_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        SpdFactor(dim=2, L=np.array([[1.0, 0.0], [0.0, -1.0]]), ridge=0.0)
