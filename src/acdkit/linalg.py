"""Covariance estimation, regularized SPD factorization, Mahalanobis forms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .raster import as_pixel_matrix

__all__ = [
    "SingularCovarianceError",
    "SpdFactor",
    "covariance",
    "spd_factorize",
    "mahalanobis_batch",
]

DEFAULT_RIDGE_SCALE = 1e-8
_MAX_RETRIES = 6


class SingularCovarianceError(ArithmeticError):
    """Raised when a matrix stays non-positive-definite after ridge retries."""


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor L of a ridged SPD matrix, C_reg = L @ L.T."""

    dim: int
    L: np.ndarray = field(repr=False)
    ridge: float

    def __post_init__(self):
        L = np.asarray(self.L, dtype=np.float64)
        if L.shape != (self.dim, self.dim):
            raise ValueError("factor shape does not match dim")
        if not np.all(np.diag(L) > 0):
            raise ValueError("factor diagonal must be strictly positive")
        L.flags.writeable = False
        object.__setattr__(self, "L", L)


def covariance(m: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Covariance C = (1/n) sum (row - mean)(row - mean)^T, exactly symmetric."""
    m = as_pixel_matrix(m)
    mean = np.asarray(mean, dtype=np.float64)
    n, d = m.shape
    if n < 2:
        raise ValueError("need at least 2 rows to estimate covariance")
    if mean.shape != (d,):
        raise ValueError("mean length does not match column count")
    centered = m - mean
    c = (centered.T @ centered) / n
    return (c + c.T) / 2.0


def spd_factorize(c: np.ndarray, ridge_scale: float = DEFAULT_RIDGE_SCALE) -> SpdFactor:
    """Cholesky-factorize C + eps*I with eps = ridge_scale * trace(C)/d.

    On failure the ridge is grown tenfold and the factorization retried, up
    to six times. A zero starting ridge is bumped to a machine-epsilon floor
    before the first retry so retries can make progress.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(c, c.T, rtol=1e-8, atol=0.0):
        raise ValueError("matrix is not symmetric")
    d = c.shape[0]
    scale = max(float(np.trace(c)) / d, 0.0)
    eps = ridge_scale * scale
    floor = np.finfo(np.float64).eps * max(scale, 1.0)
    for attempt in range(_MAX_RETRIES + 1):
        ridged = c if eps == 0.0 else c + eps * np.eye(d)
        try:
            L = np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            eps = eps * 10.0 if eps > 0.0 else floor
            continue
        return SpdFactor(dim=d, L=L, ridge=eps)
    raise SingularCovarianceError("singular covariance")


def mahalanobis_batch(f: SpdFactor, mean: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Quadratic form (v-mean)^T (L L^T)^-1 (v-mean) for each row v of an (n, d) matrix.

    Computed as squared norms of the triangular solve, so nonnegative by construction.
    """
    rows = as_pixel_matrix(rows)
    if rows.shape[1] != f.dim:
        raise ValueError("dimension mismatch")
    w = solve_triangular(f.L, (rows - mean).T, lower=True)
    return np.einsum("ij,ij->j", w, w)
