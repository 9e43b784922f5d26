import numpy as np
import pytest

from acdkit.linalg import (
    RIDGE_SCALE,
    covariance,
    inverse_weights,
    mahalanobis_batch,
    spd_factorize,
)


def random_spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def mahalanobis(p, weights):
    """mahalanobis_batch into a fresh (len(weights), m) array."""
    return mahalanobis_batch(p, weights, np.empty((len(weights), p.shape[0])))


def linear_xi(c, mean, rows, ridge_scale=RIDGE_SCALE):
    """xi of each row under covariance c: factorize, weigh, then the one quadratic form."""
    eig = spd_factorize(c, ridge_scale)
    p = (np.asarray(rows, dtype=np.float64) - mean) @ eig.basis
    return mahalanobis(p, [inverse_weights(eig.values, eig.ridge)])[0]


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


def test_spd_factorize_identity_no_ridge():
    eig = spd_factorize(np.eye(3), ridge_scale=0.0)
    assert np.array_equal(eig.values, np.ones(3))
    assert np.array_equal(np.abs(eig.basis), np.eye(3))
    assert eig.ridge == 0.0


def test_spd_factorize_rank_deficient_with_ridge():
    eig = spd_factorize(np.array([[1.0, 1.0], [1.0, 1.0]]), ridge_scale=1e-8)
    assert eig.basis.shape == (2, 2)
    assert eig.ridge == 1e-8
    w = inverse_weights(eig.values, eig.ridge)
    assert np.all(w > 0) and np.all(np.isfinite(w))


def test_spd_factorize_reconstruction():
    for seed in range(5):
        c = random_spd(6, seed)
        eig = spd_factorize(c, ridge_scale=1e-8)
        target = c + eig.ridge * np.eye(6)
        w = inverse_weights(eig.values, eig.ridge)
        rel = np.abs((eig.basis / w) @ eig.basis.T - target) / (np.abs(target) + 1e-300)
        assert np.max(rel[target != 0]) < 1e-10


def test_spd_factorize_zero_matrix_gets_machine_epsilon_floor():
    eig = spd_factorize(np.zeros((3, 3)))
    assert eig.ridge == np.finfo(np.float64).eps
    assert np.array_equal(inverse_weights(eig.values, eig.ridge), np.full(3, 1 / eig.ridge))


def test_inverse_weights_reject_non_positive_spectrum():
    with pytest.raises(np.linalg.LinAlgError):
        inverse_weights(spd_factorize(-np.eye(3), ridge_scale=0.0).values, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        inverse_weights(np.array([1.0, 1e-320]), 0.0)  # 1 / 1e-320 overflows


def test_mahalanobis_zero_at_mean():
    mean = np.array([1.0, -2.0, 0.5, 3.0])
    assert linear_xi(random_spd(4, 1), mean, mean[None])[0] == 0.0


def test_mahalanobis_identity_factor():
    xi = linear_xi(np.eye(2), np.zeros(2), np.array([[3.0, 4.0]]), ridge_scale=0.0)
    assert xi[0] == pytest.approx(25.0)


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(8)
    for seed in range(5):
        c = random_spd(5, seed + 100)
        mean = rng.normal(size=5)
        v = rng.normal(size=5)
        xi = linear_xi(c, mean, v[None], ridge_scale=0.0)[0]
        expected = (v - mean) @ np.linalg.inv(c) @ (v - mean)
        assert xi == pytest.approx(expected, rel=1e-9)


def test_mahalanobis_dimension_mismatch():
    eig = spd_factorize(np.eye(3))
    with pytest.raises(ValueError):
        mahalanobis(np.zeros((1, 4)), [inverse_weights(eig.values, eig.ridge)])


def test_mahalanobis_batch_matches_single():
    rng = np.random.default_rng(12)
    c = random_spd(4, 55)
    mean = rng.normal(size=4)
    rows = rng.normal(size=(30, 4))
    batch = linear_xi(c, mean, rows)
    singles = [linear_xi(c, mean, r[None])[0] for r in rows]
    assert np.allclose(batch, singles, rtol=1e-12)
    assert np.all(batch >= 0)


def test_mahalanobis_batch_one_square_for_many_weights():
    rng = np.random.default_rng(13)
    p = rng.normal(size=(20, 5))
    weights = [rng.uniform(0.1, 2.0, size=5) for _ in range(3)]
    xis = mahalanobis(p.copy(), weights)
    for w, xi in zip(weights, xis):
        assert np.array_equal(xi, mahalanobis(p.copy(), [w])[0])
        assert np.array_equal(xi, (p * p) @ w)


def test_mahalanobis_scale_invariance():
    rng = np.random.default_rng(40)
    rows = rng.normal(size=(200, 3)) @ random_spd(3, 9)
    v = rng.normal(size=3)
    for c_scale in (0.01, 3.0, 1e4):
        base_mean = rows.mean(axis=0)
        base = linear_xi(covariance(rows, base_mean), base_mean, v[None], 0.0)[0]
        scaled_rows = c_scale * rows
        scaled_mean = scaled_rows.mean(axis=0)
        scaled = linear_xi(
            covariance(scaled_rows, scaled_mean), scaled_mean, c_scale * v[None], 0.0
        )[0]
        assert scaled == pytest.approx(base, rel=1e-9)
