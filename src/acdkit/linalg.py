"""Covariance estimation, eigen-whitening, and the one Mahalanobis quadratic form.

Every detector term computes xi(v) = sum_j p_j^2 w_j with p = phi(v) U:
`spd_factorize` gives the eigenbasis U, `inverse_weights` the weights w, and
`mahalanobis_batch` the sum (both names are the layers bench/ reports on).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "RIDGE_SCALE",
    "SpdEigen",
    "covariance",
    "spd_factorize",
    "inverse_weights",
    "mahalanobis_batch",
]

# Relative ridge a linear term adds to its covariance eigenvalues.
RIDGE_SCALE = 1e-8


class SpdEigen(NamedTuple):
    """Eigendecomposition C = U diag(values) U^T plus the ridge chosen for C."""

    values: np.ndarray
    basis: np.ndarray
    ridge: float


def covariance(m: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Covariance (1/n) sum (row - mean)(row - mean)^T of finite 2-d float64 rows, symmetric."""
    mean = np.asarray(mean, dtype=np.float64)
    n, d = m.shape
    if n < 2:
        raise ValueError("need at least 2 rows to estimate covariance")
    if mean.shape != (d,):
        raise ValueError("mean length does not match column count")
    centered = m - mean
    c = (centered.T @ centered) / n
    return (c + c.T) / 2.0


def spd_factorize(c: np.ndarray, ridge_scale: float = RIDGE_SCALE) -> SpdEigen:
    """Eigendecompose a symmetric matrix and pick its ridge eps = ridge_scale * trace(C)/d.

    When that product is 0 but ridge_scale is not (a zero covariance), eps is
    the machine-epsilon floor eps_64 * max(trace(C)/d, 1). ridge_scale 0 gives
    eps 0. Raises np.linalg.LinAlgError if the eigensolver does not converge.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.trace(c)) / c.shape[0], 0.0)
    ridge = ridge_scale * scale
    if ridge == 0.0 and ridge_scale > 0.0:
        ridge = float(np.finfo(np.float64).eps) * max(scale, 1.0)
    values, basis = np.linalg.eigh(c)
    return SpdEigen(values=values, basis=basis, ridge=ridge)


def inverse_weights(spectrum: np.ndarray, shift: float) -> np.ndarray:
    """Weights w = 1 / (spectrum + shift); LinAlgError unless all are positive and finite."""
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / (spectrum + shift)
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise np.linalg.LinAlgError("matrix is not positive definite after its ridge")
    return w


def mahalanobis_batch(p: np.ndarray, weights) -> list:
    """(p * p) @ w for each weight vector w: one xi per row of the projection p = phi(v) U.

    p is squared in place. Nonnegative by construction, since every w is positive.
    """
    np.square(p, out=p)
    return [p @ w for w in weights]
