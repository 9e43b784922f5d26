"""Anomalous change detectors for co-registered multiband image pairs.

A fitted detector scores each pixel pair (x_i, y_i) by how anomalous the
joint observation z_i = [x_i, y_i] is under the background model, minus
optional marginal penalties:

    score = xi(z_i) - beta_x * xi(x_i) - beta_y * xi(y_i)

where xi is a squared Mahalanobis distance, evaluated either in input
space (linear mode) or implicitly in a reproducing-kernel Hilbert space
(kernel mode). The beta flags pick the family member:

    beta_x  beta_y  name
      0       0     rx      joint anomalousness only
      0       1     yx      discount pixels whose y is itself anomalous
      1       0     xy      discount pixels whose x is itself anomalous
      1       1     hacd    discount both marginals (hyperbolic boundaries)

Two score combinations are available. The Gaussian combination uses the
xi values directly. The elliptically-contoured (EC) combination wraps
each xi in a Student-t flavored rescaling (dim + nu) * log1p(xi / nu);
as nu grows it reproduces the Gaussian ordering.

Every term computes xi as one whitened quadratic form, with a basis U and
positive weights w: xi(v) = sum_j p_j^2 w_j for p = (phi(v) - c) U. Linear
terms take phi(v) = v, c the training mean, C = U diag(s) U^T the training
covariance and w = 1 / (s + eps), eps = 1e-8 trace(C)/d. Kernel terms
evaluate the regularized dual form

    xi_H(v) = k_v (K K + lambda I)^-1 k_v^T

with phi(v) = k_v the probe-to-training kernel row, c = 0, the Gram matrix
K = U diag(s) U^T and w = 1 / (s^2 + lambda), without forming K K.

With a linear kernel, negligible lambda, and more samples than features
this reduces to the uncentered input-space quadratic form v (X^T X)^-1 v.

Inputs are z-score standardized per band with statistics fit on the
training pixels; Gram matrices are not centered in feature space.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import KernelSpec, cross_gram, gram
from .linalg import covariance, inverse_weights, mahalanobis_batch, spd_factorize
from .raster import (
    BandStats,
    as_pixel_matrix,
    stack_pair,
    standardize_apply,
    standardize_fit,
)

__all__ = [
    "DETECTOR_BETAS",
    "DetectorConfig",
    "LinearTerm",
    "KernelTerm",
    "FittedDetector",
    "standardized_training",
    "fit",
    "fit_kernel_term",
    "kernel_lambda",
    "xi_term",
    "xi_kernel_path",
    "xi_pixels",
    "combine_xi",
    "score_pixels",
    "with_params",
]

# Table of beta flags per detector name.
DETECTOR_BETAS = {"rx": (0, 0), "yx": (0, 1), "xy": (1, 0), "hacd": (1, 1)}

# Default kernel regularizer is AUTO_LAMBDA_NUM / n_train.
AUTO_LAMBDA_NUM = 1e-5

# Pixels are scored in fixed-size chunks so results are bit-identical
# regardless of thread count.
_SCORE_CHUNK = 8192


@dataclass(frozen=True)
class DetectorConfig:
    """Which family member to build and how.

    nu: EC shape; only the ec distribution takes one.
    lam: kernel regularizer; None means auto (1e-5 / n_train).
    """

    beta_x: int = 1
    beta_y: int = 1
    distribution: str = "gaussian"
    nu: float | None = None
    mode: str = "linear"
    kernel: KernelSpec | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.beta_x not in (0, 1) or self.beta_y not in (0, 1):
            raise ValueError("beta flags must be 0 or 1")
        if self.distribution not in ("gaussian", "ec"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "ec":
            if self.nu is None or not self.nu > 0:
                raise ValueError("ec distribution requires nu > 0")
        elif self.nu is not None:
            raise ValueError("nu applies to the ec distribution only")
        if self.mode not in ("linear", "kernel"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "kernel":
            if self.kernel is None:
                raise ValueError("kernel mode requires a kernel spec")
            if self.lam is not None and not self.lam > 0:
                raise ValueError("lam must be positive (or None for auto)")


def _freeze(term, k: int, **arrays) -> None:
    """Store read-only float64 arrays on a term, then check its basis (k x k) and weights (k)."""
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(term, name, arr)
    if term.basis.shape != (k, k) or term.weights.shape != (k,):
        raise ValueError(f"basis and weights must have shapes ({k}, {k}) and ({k},)")
    if not np.all(term.weights > 0):
        raise ValueError("weights must be positive")


@dataclass(frozen=True)
class LinearTerm:
    """One term (x, y, or z) in input space: xi(v) = ((v - mean) basis)^2 . weights.

    basis and weights whiten the training covariance C = U diag(s) U^T:
    weights = 1 / (s + ridge).
    """

    mean: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    ridge: float

    def __post_init__(self):
        _freeze(self, np.size(self.mean), mean=self.mean, basis=self.basis,
                weights=self.weights)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class KernelTerm:
    """One term in feature space: xi(v) = (k_v basis)^2 . weights.

    train holds finite 2-d float64 rows. With the training Gram matrix
    K = U diag(s) U^T, basis = U and weights = 1 / (s^2 + lam).
    """

    train: np.ndarray = field(repr=False)
    spec: KernelSpec
    lam: float
    basis: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, np.shape(self.train)[0], train=self.train, basis=self.basis,
                weights=self.weights)

    @property
    def dim(self) -> int:
        return self.train.shape[1]


@dataclass(frozen=True)
class FittedDetector:
    config: DetectorConfig
    band_stats_x: BandStats
    band_stats_y: BandStats
    d_x: int
    d_y: int
    term_x: LinearTerm | KernelTerm
    term_y: LinearTerm | KernelTerm
    term_z: LinearTerm | KernelTerm

    def __post_init__(self):
        dims = (self.band_stats_x.d, self.term_x.dim, self.band_stats_y.d, self.term_y.dim,
                self.term_z.dim)
        if dims != (self.d_x, self.d_x, self.d_y, self.d_y, self.d_x + self.d_y):
            raise ValueError("band stats and terms must have d_x, d_y and d_x + d_y dims")


def _fit_linear_term(rows: np.ndarray) -> LinearTerm:
    mean = rows.mean(axis=0)
    eig = spd_factorize(covariance(rows, mean))
    return LinearTerm(mean=mean, basis=eig.basis,
                      weights=inverse_weights(eig.values, eig.ridge), ridge=eig.ridge)


def fit_kernel_term(train: np.ndarray, spec: KernelSpec, lam: float) -> KernelTerm:
    """Fit a kernel term on finite 2-d float64 rows: K = U diag(s) U^T, w = 1 / (s^2 + lam)."""
    eig = spd_factorize(gram(train, spec), ridge_scale=0.0)
    return KernelTerm(train=train, spec=spec, lam=lam, basis=eig.basis,
                      weights=inverse_weights(eig.values * eig.values, lam))


def kernel_lambda(config: DetectorConfig, n_train: int) -> float:
    """The kernel regularizer a fit on n_train rows applies: config.lam, or auto."""
    return config.lam if config.lam is not None else AUTO_LAMBDA_NUM / n_train


def standardized_training(x_train: np.ndarray, y_train: np.ndarray):
    """Band stats fit on a training pair, and its standardized x, y and stacked z rows.

    Expects finite 2-d float64 rows; returns (stats_x, stats_y, xs, ys, zs).
    """
    stats_x = standardize_fit(x_train)
    stats_y = standardize_fit(y_train)
    xs = standardize_apply(x_train, stats_x)
    ys = standardize_apply(y_train, stats_y)
    return stats_x, stats_y, xs, ys, stack_pair(xs, ys)


def fit(x_train: np.ndarray, y_train: np.ndarray, config: DetectorConfig) -> FittedDetector:
    """Fit per-term statistics on a training pair.

    Band standardization is fit on the training pixels and baked into the
    detector. Linear mode stores, for x, y and the stacked z, the mean and
    the whitened covariance; kernel mode stores the standardized training
    samples and the whitened Gram matrix per term. x_train and y_train are validated here.
    """
    return _fit_rows(as_pixel_matrix(x_train), as_pixel_matrix(y_train), config)


def _fit_rows(x_train: np.ndarray, y_train: np.ndarray, config: DetectorConfig) -> FittedDetector:
    """fit on finite 2-d float64 rows."""
    if x_train.shape[0] != y_train.shape[0]:
        raise ValueError("unaligned pair: training row counts differ")
    n = x_train.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training samples")

    stats_x, stats_y, xs, ys, zs = standardized_training(x_train, y_train)

    if config.mode == "linear":
        terms = {
            name: _fit_linear_term(rows)
            for name, rows in (("x", xs), ("y", ys), ("z", zs))
        }
    else:
        lam = kernel_lambda(config, n)
        terms = {
            name: fit_kernel_term(rows, config.kernel, lam)
            for name, rows in (("x", xs), ("y", ys), ("z", zs))
        }

    return FittedDetector(
        config=config,
        band_stats_x=stats_x,
        band_stats_y=stats_y,
        d_x=x_train.shape[1],
        d_y=y_train.shape[1],
        term_x=terms["x"],
        term_y=terms["y"],
        term_z=terms["z"],
    )


def xi_term(term: LinearTerm | KernelTerm, rows: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance xi of each finite 2-d float64 row under one fitted term.

    Linear terms give (v - mean)^T (C + ridge I)^-1 (v - mean) in input
    space; kernel terms give the dual form k_v (K K + lambda I)^-1 k_v^T.
    """
    if isinstance(term, LinearTerm):
        p = (rows - term.mean) @ term.basis
    else:
        p = cross_gram(term.train, rows, term.spec) @ term.basis
    return mahalanobis_batch(p, [term.weights])[0]


def xi_kernel_path(
    train: np.ndarray, probes: np.ndarray, spec: KernelSpec, lams
) -> np.ndarray:
    """Kernel xi of each probe row for every regularizer in lams at once.

    train and probes are finite 2-d float64 rows. Returns a (len(lams), m)
    array whose row i equals, bit for bit, the xi that
    fit_kernel_term(train, spec, lams[i]) gives probes scored in
    _SCORE_CHUNK blocks, as xi_pixels scores them. K is eigendecomposed
    once, and each probe block is projected and squared once for all lambdas.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or not np.all(lams > 0):
        raise ValueError("lams must be a 1-d array of positive values")
    eig = spd_factorize(gram(train, spec), ridge_scale=0.0)
    spectrum = eig.values * eig.values
    weights = [inverse_weights(spectrum, lam) for lam in lams]
    m = probes.shape[0]
    xi = np.empty((lams.size, m))
    for start in range(0, m, _SCORE_CHUNK):
        sl = slice(start, min(start + _SCORE_CHUNK, m))
        p = cross_gram(train, probes[sl], spec) @ eig.basis
        xi[:, sl] = mahalanobis_batch(p, weights)
    return xi


def combine_xi(
    xi_z: np.ndarray,
    xi_x: np.ndarray,
    xi_y: np.ndarray,
    config: DetectorConfig,
    d_x: int,
    d_y: int,
) -> np.ndarray:
    """Combine per-term xi values into final scores per the config.

    Gaussian: xi_z - beta_x * xi_x - beta_y * xi_y. EC with Student-t
    shape nu: each xi becomes (dim + nu) * log1p(xi / nu), with dim that
    term's own input dimensionality, so unequal band counts d_x != d_y are
    handled consistently.
    """
    beta_x, beta_y = config.beta_x, config.beta_y
    if config.distribution == "gaussian":
        return xi_z - beta_x * xi_x - beta_y * xi_y
    nu = config.nu
    score = (d_x + d_y + nu) * np.log1p(xi_z / nu)
    if beta_x:
        score = score - (d_x + nu) * np.log1p(xi_x / nu)
    if beta_y:
        score = score - (d_y + nu) * np.log1p(xi_y / nu)
    return score


def xi_pixels(det: FittedDetector, x: np.ndarray, y: np.ndarray, threads: int = 1) -> np.ndarray:
    """Per-pixel xi as a (3, n) array whose rows are xi_z, xi_x and xi_y.

    x and y are validated here. Each fixed-size chunk is standardized,
    stacked and scored on its own, so no full-scene copy is made and
    results are bit-identical whether run sequentially or in parallel.
    Only kernel models spread the chunks over `threads` workers: their
    probe kernels dominate and gain from the pool, while a linear chunk is
    a few BLAS calls that the pool only slows down.
    """
    return _xi_rows(det, as_pixel_matrix(x), as_pixel_matrix(y), threads)


def _xi_rows(det: FittedDetector, x: np.ndarray, y: np.ndarray, threads: int = 1) -> np.ndarray:
    """xi_pixels on finite 2-d float64 rows."""
    if x.shape[0] != y.shape[0]:
        raise ValueError("unaligned pair: row counts differ")
    if x.shape[1] != det.d_x or y.shape[1] != det.d_y:
        raise ValueError(
            f"band-count mismatch: expected ({det.d_x}, {det.d_y}), "
            f"got ({x.shape[1]}, {y.shape[1]})"
        )
    n = x.shape[0]
    xi = np.empty((3, n))
    chunks = [slice(i, min(i + _SCORE_CHUNK, n)) for i in range(0, n, _SCORE_CHUNK)]

    def one(sl):
        xs = standardize_apply(x[sl], det.band_stats_x)
        ys = standardize_apply(y[sl], det.band_stats_y)
        xi[0, sl] = xi_term(det.term_z, stack_pair(xs, ys))
        xi[1, sl] = xi_term(det.term_x, xs)
        xi[2, sl] = xi_term(det.term_y, ys)

    if threads > 1 and len(chunks) > 1 and isinstance(det.term_z, KernelTerm):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, chunks))
    else:
        for sl in chunks:
            one(sl)
    return xi


def score_pixels(
    det: FittedDetector, x: np.ndarray, y: np.ndarray, threads: int = 1
) -> np.ndarray:
    """Per-pixel anomalousness scores, in input pixel order."""
    xi_z, xi_x, xi_y = xi_pixels(det, x, y, threads=threads)
    return combine_xi(xi_z, xi_x, xi_y, det.config, det.d_x, det.d_y)


def with_params(
    config: DetectorConfig,
    nu: float | None = None,
    sigma: float | None = None,
    lam: float | None = None,
) -> DetectorConfig:
    """Copy a config with tuning parameters swapped in (None leaves as-is)."""
    out = config
    if nu is not None:
        out = replace(out, nu=nu)
    if sigma is not None:
        if out.kernel is None:
            raise ValueError("sigma given but config has no kernel")
        out = replace(out, kernel=replace(out.kernel, sigma=sigma))
    if lam is not None:
        out = replace(out, lam=lam)
    return out
